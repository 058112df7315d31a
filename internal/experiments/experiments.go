// Package experiments implements the reproduction experiment suite of
// DESIGN.md §3 (E1–E13). Each experiment returns a formatted table; the
// cmd/provbench binary prints them and EXPERIMENTS.md records the results.
// The paper (a tutorial) has no numeric tables of its own: E1 and E2
// reproduce its two figures, and E3–E12 quantify the claims its prose makes
// about the systems it surveys.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analogy"
	"repro/internal/collab"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/interop"
	"repro/internal/params"
	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/pql"
	"repro/internal/query/triplequery"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
	"repro/internal/store/wal"
	"repro/internal/views"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// Metric is one machine-readable measurement of an experiment, emitted by
// cmd/provbench as BENCH_<ID>.json so successive PRs accumulate a perf
// trajectory.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one experiment's rendered output plus its structured metrics.
type Result struct {
	ID      string
	Title   string
	Table   string
	Metrics []Metric
}

// All runs every experiment in order.
func All() []Result {
	return []Result{
		E1(), E2(), E3(), E4(), E5(), E6(), E7(), E8(), E9(), E10(), E11(), E12(), E13(), E14(), E15(), E16(), E17(), E18(), E19(), E20(), E21(),
	}
}

// ByID runs one experiment.
func ByID(id string) (Result, error) {
	fns := map[string]func() Result{
		"E1": E1, "E2": E2, "E3": E3, "E4": E4, "E5": E5, "E6": E6,
		"E7": E7, "E8": E8, "E9": E9, "E10": E10, "E11": E11, "E12": E12,
		"E13": E13, "E14": E14, "E15": E15, "E16": E16, "E17": E17, "E18": E18,
		"E19": E19, "E20": E20, "E21": E21,
	}
	fn, ok := fns[strings.ToUpper(id)]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return fn(), nil
}

func newEngine(rec provenance.Recorder, workers int, cache *engine.Cache) *engine.Engine {
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	return engine.New(engine.Options{Registry: reg, Recorder: rec, Workers: workers, Cache: cache})
}

// E1 reproduces Figure 1: prospective vs retrospective provenance of the
// medical-imaging workflow.
func E1() Result {
	wf := workloads.MedicalImaging()
	col := provenance.NewCollector()
	e := newEngine(col, 1, nil)
	res, err := e.Run(context.Background(), wf, nil)
	if err != nil {
		return errResult("E1", err)
	}
	col.Annotate(res.Artifacts["render.image"], provenance.KindArtifact,
		"note", "isovalue 57 isolates bone", "juliana")
	log, _ := col.Log(res.RunID)
	ps := wf.Stat()
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "quantity", "prospective", "retrospective")
	fmt.Fprintf(&b, "%-34s %10d %10s\n", "modules / executions", ps.Modules, fmt.Sprint(len(log.Executions)))
	fmt.Fprintf(&b, "%-34s %10d %10s\n", "connections / use+gen events", ps.Connections, fmt.Sprint(countEvents(log)))
	fmt.Fprintf(&b, "%-34s %10d %10d\n", "parameters / artifacts", ps.Params, len(log.Artifacts))
	fmt.Fprintf(&b, "%-34s %10d %10d\n", "annotations", ps.Annotations+1, len(log.Annotations))
	fmt.Fprintf(&b, "%-34s %10s %10d\n", "total events", "-", len(log.Events))
	fmt.Fprintf(&b, "final products: histogram=%s..., isosurface=%s...\n",
		short(res.Outputs["histogram.plot"].Hash()), short(res.Outputs["render.image"].Hash()))
	return Result{ID: "E1", Title: "Figure 1: prospective vs retrospective provenance", Table: b.String()}
}

func countEvents(l *provenance.RunLog) int {
	n := 0
	for _, ev := range l.Events {
		if ev.Kind == provenance.EventArtifactUsed || ev.Kind == provenance.EventArtifactGen {
			n++
		}
	}
	return n
}

// E2 reproduces Figure 2: analogy transfer success over perturbed targets.
func E2() Result {
	wa := workloads.DownloadAndRender()
	wb := workloads.DownloadAndRenderSmoothed()
	const n = 50
	ok, mappedRight := 0, 0
	for i := 0; i < n; i++ {
		target := workloads.MedicalImaging()
		// Perturb: vary isovalue, bins; add an independent chain every
		// third target.
		_ = target.SetParam("contour", "isovalue", fmt.Sprint(40+i))
		_ = target.SetParam("histogram", "bins", fmt.Sprint(8+i%8))
		if i%3 == 0 {
			_ = target.AddModule(&workflow.Module{
				ID: fmt.Sprintf("extra%d", i), Name: "extra", Type: "SensorGen",
				Outputs: []workflow.Port{{Name: "series", Type: workloads.TypeSeries}},
			})
		}
		res, err := analogy.Refine(wa, wb, target)
		if err != nil {
			continue
		}
		if res.Workflow.Validate() == nil {
			ok++
		}
		if res.Mapping["contour"] == "contour" && res.Mapping["render"] == "render" {
			mappedRight++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %8s\n", "metric", "value")
	fmt.Fprintf(&b, "%-38s %8d\n", "perturbed targets", n)
	fmt.Fprintf(&b, "%-38s %7.0f%%\n", "transfer success (valid result)", 100*float64(ok)/n)
	fmt.Fprintf(&b, "%-38s %7.0f%%\n", "anchor mapping correct", 100*float64(mappedRight)/n)
	return Result{ID: "E2", Title: "Figure 2: workflow refinement by analogy", Table: b.String()}
}

// E3 measures capture overhead: runtime with capture off vs on (collector)
// vs on+persist (file store), over chain workflows.
func E3() Result {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %9s\n", "modules", "no capture", "collector", "collector+file", "overhead")
	for _, n := range []int{10, 50, 200} {
		wf := workloads.Chain(n)
		off := timeRuns(func() { mustRun(newEngine(nil, 4, nil), wf) }, 5)
		col := provenance.NewCollector()
		e := newEngine(col, 4, nil)
		on := timeRuns(func() { mustRun(e, wf) }, 5)
		dir, _ := tempDir()
		fs, err := store.OpenFileStore(dir)
		if err != nil {
			return errResult("E3", err)
		}
		colf := provenance.NewCollector()
		ef := newEngine(colf, 4, nil)
		file := timeRuns(func() {
			res := mustRun(ef, wf)
			l, _ := colf.Log(res.RunID)
			_ = fs.PutRunLog(l)
		}, 5)
		fs.Close()
		fmt.Fprintf(&b, "%-10d %14s %14s %14s %8.2fx\n", n, off, on, file,
			float64(on)/float64(off))
	}
	return Result{ID: "E3", Title: "capture overhead (chain workflows, 5-run median)", Table: b.String()}
}

// E4 measures lineage-query latency vs provenance size across backends,
// comparing the per-edge reference BFS against the pushed-down batch
// closure (O(edges) vs O(hops) backend operations).
func E4() Result {
	var b strings.Builder
	var metrics []Metric
	fmt.Fprintf(&b, "%-10s %-8s %-8s %14s %14s %9s\n",
		"modules", "edges", "backend", "per-edge", "batch", "speedup")
	for _, n := range []int{20, 100, 200} {
		wf := workloads.Chain(n)
		col := provenance.NewCollector()
		e := newEngine(col, 4, nil)
		res := mustRun(e, wf)
		log, _ := col.Log(res.RunID)
		target := res.Artifacts[fmt.Sprintf("s%02d.out", n-1)]
		dir, _ := tempDir()
		fs, err := store.OpenFileStore(dir)
		if err != nil {
			return errResult("E4", err)
		}
		backends := []store.Store{store.NewMemStore(), store.NewRelStore(), store.NewTripleStore(), fs}
		for _, s := range backends {
			if err := s.PutRunLog(log); err != nil {
				return errResult("E4", err)
			}
			perEdge := timeRuns(func() {
				if _, err := store.NaiveClosure(s, target, store.Up); err != nil {
					panic(err)
				}
			}, 5)
			batch := timeRuns(func() {
				if _, err := s.Closure(target, store.Up); err != nil {
					panic(err)
				}
			}, 5)
			fmt.Fprintf(&b, "%-10d %-8d %-8s %14s %14s %8.1fx\n",
				n, countEvents(log), s.Name(), perEdge, batch,
				float64(perEdge)/float64(batch))
			metrics = append(metrics,
				Metric{Name: fmt.Sprintf("lineage_peredge_%s_n%d", s.Name(), n), Value: float64(perEdge.Nanoseconds()), Unit: "ns"},
				Metric{Name: fmt.Sprintf("lineage_batch_%s_n%d", s.Name(), n), Value: float64(batch.Nanoseconds()), Unit: "ns"})
		}
		fs.Close()
	}
	return Result{ID: "E4", Title: "lineage latency: per-edge BFS vs pushed-down batch closure, per backend", Table: b.String(), Metrics: metrics}
}

// E5 measures user-view provenance reduction.
func E5() Result {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %10s %10s %8s\n", "chain", "group size", "concrete", "abstract", "factor")
	for _, n := range []int{12, 24, 48} {
		wf := workloads.Chain(n)
		col := provenance.NewCollector()
		e := newEngine(col, 1, nil)
		res := mustRun(e, wf)
		log, _ := col.Log(res.RunID)
		for _, g := range []int{2, 4, 8} {
			v := views.NewView(fmt.Sprintf("g%d", g))
			for i := 0; i < n; i += g {
				var members []string
				for j := i; j < i+g && j < n; j++ {
					members = append(members, fmt.Sprintf("s%02d", j))
				}
				if err := v.Group(fmt.Sprintf("c%02d", i/g), members...); err != nil {
					return errResult("E5", err)
				}
			}
			r, err := v.Reduction(log)
			if err != nil {
				return errResult("E5", err)
			}
			fmt.Fprintf(&b, "%-12d %-12d %10d %10d %7.1fx\n",
				n, g, r.ConcreteNodes, r.AbstractNodes, r.Factor)
		}
		_ = res
	}
	return Result{ID: "E5", Title: "user views: provenance overload reduction (ZOOM)", Table: b.String()}
}

// E6 compares the query languages on the same lineage workload.
func E6() Result {
	wf := workloads.Chain(60)
	col := provenance.NewCollector()
	e := newEngine(col, 1, nil)
	res := mustRun(e, wf)
	log, _ := col.Log(res.RunID)
	target := res.Artifacts["s59.out"]

	mem := store.NewMemStore()
	if err := mem.PutRunLog(log); err != nil {
		return errResult("E6", err)
	}
	ts := store.NewTripleStore()
	if err := ts.PutRunLog(log); err != nil {
		return errResult("E6", err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %8s\n", "engine / query", "latency", "rows")
	// Direct BFS.
	var bfsRows int
	t := timeRuns(func() {
		lin, err := store.Lineage(mem, target)
		if err != nil {
			panic(err)
		}
		bfsRows = len(lin)
	}, 5)
	fmt.Fprintf(&b, "%-34s %12s %8d\n", "native BFS (store.Lineage)", t, bfsRows)
	// PQL LINEAGE OF.
	var pqlRows int
	t = timeRuns(func() {
		r, err := pql.Run(mem, fmt.Sprintf("LINEAGE OF '%s'", target))
		if err != nil {
			panic(err)
		}
		pqlRows = len(r.Rows)
	}, 5)
	fmt.Fprintf(&b, "%-34s %12s %8d\n", "PQL LINEAGE OF", t, pqlRows)
	// Datalog ancestor closure (includes full fixpoint materialization).
	var dlRows int
	t = timeRuns(func() {
		p, err := datalog.NewProvenanceProgram(mem)
		if err != nil {
			panic(err)
		}
		atom, _ := datalog.ParseAtom(fmt.Sprintf("ancestor('%s', X)", target))
		r, err := p.Query(atom)
		if err != nil {
			panic(err)
		}
		dlRows = len(r.Rows)
	}, 3)
	fmt.Fprintf(&b, "%-34s %12s %8d\n", "Datalog ancestor (fixpoint)", t, dlRows)
	// The same ancestor atom pushed down to the store's batch closure: no
	// fact loading, no fixpoint.
	var pdRows int
	t = timeRuns(func() {
		atom, _ := datalog.ParseAtom(fmt.Sprintf("ancestor('%s', X)", target))
		r, pushed, err := datalog.AncestorQueryViaStore(mem, atom)
		if err != nil || !pushed {
			panic(fmt.Sprintf("pushdown failed: pushed=%v err=%v", pushed, err))
		}
		pdRows = len(r.Rows)
	}, 5)
	fmt.Fprintf(&b, "%-34s %12s %8d\n", "Datalog ancestor (pushed-down)", t, pdRows)
	// SPARQL-like one-hop pattern (BGP engines do closure by repeated
	// joins; one hop is the comparable primitive).
	var tqRows int
	t = timeRuns(func() {
		r, err := triplequery.Run(ts, fmt.Sprintf(
			"SELECT ?e WHERE { ?e prov:generated <%s> . }", target))
		if err != nil {
			panic(err)
		}
		tqRows = len(r.Rows)
	}, 5)
	fmt.Fprintf(&b, "%-34s %12s %8d\n", "SPARQL-like single hop", t, tqRows)
	if bfsRows != pqlRows || bfsRows != dlRows || bfsRows != pdRows {
		fmt.Fprintf(&b, "WARNING: row counts disagree (%d/%d/%d/%d)\n", bfsRows, pqlRows, dlRows, pdRows)
	}
	return Result{ID: "E6", Title: "query languages on the same lineage (60-module chain)", Table: b.String()}
}

// E7 runs the Provenance-Challenge integration experiment.
func E7() Result {
	runs, err := interop.RunPipeline(4)
	if err != nil {
		return errResult("E7", err)
	}
	graphs, err := interop.SystemGraphs(runs)
	if err != nil {
		return errResult("E7", err)
	}
	merged, err := interop.Integrate(graphs...)
	if err != nil {
		return errResult("E7", err)
	}
	names := []string{"kepler-sim", "taverna-sim", "vistrails-sim"}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "graph")
	for _, q := range interop.Suite() {
		fmt.Fprintf(&b, " %-3s", q.ID)
	}
	fmt.Fprintf(&b, " %s\n", "answered")
	row := func(name string, r *interop.ChallengeReport) {
		fmt.Fprintf(&b, "%-14s", name)
		for _, q := range interop.Suite() {
			mark := "no"
			if r.Answerable[q.ID] {
				mark = "yes"
			}
			fmt.Fprintf(&b, " %-3s", mark)
		}
		fmt.Fprintf(&b, " %d/%d\n", r.Answered, r.Total)
	}
	for i, g := range graphs {
		row(names[i], interop.RunSuite(names[i], g))
	}
	row("integrated", interop.RunSuite("integrated", merged))
	return Result{ID: "E7", Title: "Provenance Challenge: single-system vs integrated answerability", Table: b.String()}
}

// E8 measures version-tree materialization and diff cost vs history size.
func E8() Result {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "versions", "materialize", "diff(head,mid)")
	for _, n := range []int{100, 1000, 5000} {
		tree := evolution.NewTree("bench")
		at, err := tree.Commit(tree.Root(), "u", "import",
			evolution.ImportWorkflow(workloads.MedicalImaging()))
		if err != nil {
			return errResult("E8", err)
		}
		var mid int
		for i := 0; i < n; i++ {
			at, err = tree.Commit(at, "u", "",
				[]evolution.Action{evolution.SetParamAction("contour", "isovalue", fmt.Sprint(40+i%100))})
			if err != nil {
				return errResult("E8", err)
			}
			if i == n/2 {
				mid = at
			}
		}
		head := at
		mat := timeRuns(func() {
			if _, err := tree.Materialize(head); err != nil {
				panic(err)
			}
		}, 3)
		diff := timeRuns(func() {
			if _, err := tree.DiffVersions(head, mid); err != nil {
				panic(err)
			}
		}, 3)
		fmt.Fprintf(&b, "%-12d %14s %14s\n", n, mat, diff)
	}
	return Result{ID: "E8", Title: "evolution: version-tree materialization and diff scaling", Table: b.String()}
}

// E9 measures why-provenance overhead on relational pipelines.
func E9() Result {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s %9s\n", "rows", "plain join", "prov join", "overhead")
	for _, n := range []int{100, 500, 2000} {
		left := make([][]relalg.Val, n)
		right := make([][]relalg.Val, n)
		for i := 0; i < n; i++ {
			left[i] = []relalg.Val{int64(i % (n / 10)), int64(i)}
			right[i] = []relalg.Val{int64(i % (n / 10)), int64(1000 + i)}
		}
		l, err := relalg.NewRelation("l", []string{"k", "x"}, left)
		if err != nil {
			return errResult("E9", err)
		}
		r, err := relalg.NewRelation("r", []string{"k", "y"}, right)
		if err != nil {
			return errResult("E9", err)
		}
		// "Plain" baseline: hash join without witness bookkeeping.
		plain := timeRuns(func() { plainJoin(l, r) }, 3)
		prov := timeRuns(func() {
			if _, err := relalg.Join(l, r, "k", "k"); err != nil {
				panic(err)
			}
		}, 3)
		fmt.Fprintf(&b, "%-10d %14s %14s %8.2fx\n", n, plain, prov, float64(prov)/float64(plain))
	}
	return Result{ID: "E9", Title: "why-provenance overhead on joins (tuple witnesses)", Table: b.String()}
}

// plainJoin is the no-provenance baseline for E9: the same hash join,
// materializing joined tuples, but without witness bookkeeping.
func plainJoin(l, r *relalg.Relation) int {
	idx := map[int64][]int{}
	for i, t := range r.Tuples {
		idx[t.Values[0].(int64)] = append(idx[t.Values[0].(int64)], i)
	}
	var out [][]relalg.Val
	for _, t := range l.Tuples {
		for _, i := range idx[t.Values[0].(int64)] {
			vals := make([]relalg.Val, 0, len(t.Values)+len(r.Tuples[i].Values))
			vals = append(vals, t.Values...)
			vals = append(vals, r.Tuples[i].Values...)
			out = append(out, vals)
		}
	}
	return len(out)
}

// E10 measures parameter-sweep throughput vs workers and cache effect.
// The base is a compute-bound 8-stage chain; only the final stage's
// parameter is swept, so with caching the first 7 stages execute once.
func E10() Result {
	base := workloads.Chain(8)
	for i := 0; i < 8; i++ {
		_ = base.SetParam(fmt.Sprintf("s%02d", i), "work", "2000")
	}
	sweep := func() *params.Sweep {
		return &params.Sweep{
			Base: base,
			Axes: []params.Axis{
				{ModuleID: "s07", Param: "work", Values: []string{
					"2001", "2002", "2003", "2004", "2005", "2006",
					"2007", "2008", "2009", "2010", "2011", "2012"}},
			},
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %14s %12s\n", "workers", "cache", "elapsed", "cache hits")
	for _, w := range []int{1, 4} {
		for _, cached := range []bool{false, true} {
			var cache *engine.Cache
			if cached {
				cache = engine.NewCache()
			}
			e := newEngine(nil, 4, cache)
			start := time.Now()
			if _, err := params.Run(context.Background(), e, sweep(), params.Options{Workers: w}); err != nil {
				return errResult("E10", err)
			}
			elapsed := time.Since(start)
			hits, _ := cache.Stats()
			fmt.Fprintf(&b, "%-10d %-8v %14s %12d\n", w, cached, elapsed.Round(time.Microsecond), hits)
		}
	}
	return Result{ID: "E10", Title: "parameter sweep: 12 points, workers × cache", Table: b.String()}
}

// E11 measures storage footprint per event across backends.
func E11() Result {
	wf := workloads.RandomLayered(11, 6, 6, 2)
	col := provenance.NewCollector()
	e := newEngine(col, 4, nil)
	var logs []*provenance.RunLog
	for i := 0; i < 10; i++ {
		res := mustRun(e, wf)
		l, _ := col.Log(res.RunID)
		logs = append(logs, l)
	}
	dir, _ := tempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		return errResult("E11", err)
	}
	backends := []store.Store{store.NewMemStore(), store.NewRelStore(), store.NewTripleStore(), fs}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %12s %14s\n", "backend", "runs", "events", "bytes", "bytes/event")
	for _, s := range backends {
		for _, l := range logs {
			if err := s.PutRunLog(l); err != nil {
				return errResult("E11", err)
			}
		}
		st, err := s.Stats()
		if err != nil {
			return errResult("E11", err)
		}
		fmt.Fprintf(&b, "%-10s %10d %10d %12d %14.1f\n",
			s.Name(), st.Runs, st.Events, st.Bytes, float64(st.Bytes)/float64(st.Events))
		s.Close()
	}
	return Result{ID: "E11", Title: "storage footprint per provenance event, per backend", Table: b.String()}
}

// E12 measures collaboratory search latency and recommendation coverage.
func E12() Result {
	repo := collab.NewRepository(store.NewMemStore())
	users, err := collab.SynthesizeCommunity(repo, collab.CommunityOptions{Seed: 1, Users: 30, RunsEach: 4})
	if err != nil {
		return errResult("E12", err)
	}
	searchT := timeRuns(func() { repo.Search("visualization imaging", 10) }, 10)
	covered := 0
	var hitScores []float64
	for _, u := range users {
		recs := repo.Recommend(u, 3)
		if len(recs) > 0 {
			covered++
			hitScores = append(hitScores, recs[0].Score)
		}
	}
	sort.Float64s(hitScores)
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %12s\n", "metric", "value")
	st := repo.Stat()
	fmt.Fprintf(&b, "%-38s %12d\n", "workflows", st.Workflows)
	fmt.Fprintf(&b, "%-38s %12d\n", "published runs", st.Runs)
	fmt.Fprintf(&b, "%-38s %12s\n", "search latency (10-run median)", searchT)
	fmt.Fprintf(&b, "%-38s %11.0f%%\n", "users with recommendations", 100*float64(covered)/float64(len(users)))
	return Result{ID: "E12", Title: "collaboratory: search latency and recommendation coverage", Table: b.String()}
}

// E13 measures incremental closure maintenance on the durable file backend
// at depth 128: cold pushed-down Closure vs warm cached closures, plus the
// cost of an ingest that patches a warm closure in place and the latency of
// the first query after that patch. Every cached answer is verified
// set-equal against NaiveClosure on the current graph.
func E13() Result {
	const n = 128
	wf := workloads.Chain(n)
	col := provenance.NewCollector()
	e := newEngine(col, 4, nil)
	res := mustRun(e, wf)
	log, _ := col.Log(res.RunID)
	head := res.Artifacts["s00.out"]
	tail := res.Artifacts[fmt.Sprintf("s%02d.out", n-1)]

	dir, _ := tempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		return errResult("E13", err)
	}
	defer fs.Close()
	cached := closurecache.Wrap(fs)
	if err := cached.PutRunLog(log); err != nil {
		return errResult("E13", err)
	}

	verify := func(root string, d store.Direction) error {
		got, err := cached.Closure(root, d)
		if err != nil {
			return err
		}
		want, err := store.NaiveClosure(fs, root, d)
		if err != nil {
			return err
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("cached closure of %s diverged from NaiveClosure", root)
		}
		return nil
	}

	cold := timeRunsExact(func() {
		if _, err := fs.Closure(tail, store.Up); err != nil {
			panic(err)
		}
	}, 7)
	// Warm the upstream closure of the tail and the downstream closure of
	// the head, then measure pure cache hits.
	if err := verify(tail, store.Up); err != nil {
		return errResult("E13", err)
	}
	if err := verify(head, store.Down); err != nil {
		return errResult("E13", err)
	}
	warm := timeRunsExact(func() {
		if _, err := cached.Closure(tail, store.Up); err != nil {
			panic(err)
		}
	}, 7)

	// Ingest runs that consume the chain's tail: each patches the warm
	// downstream closure of the head in place.
	extend := func(i int) *provenance.RunLog {
		l := &provenance.RunLog{}
		l.Run = provenance.Run{ID: fmt.Sprintf("e13-ext-%04d", i), WorkflowID: "ext", Status: provenance.StatusOK}
		exec := fmt.Sprintf("e13-exec-%04d", i)
		out := fmt.Sprintf("e13-art-%04d", i)
		l.Executions = []*provenance.Execution{{ID: exec, RunID: l.Run.ID, ModuleID: "ext", ModuleType: "Ext", Status: provenance.StatusOK}}
		l.Artifacts = []*provenance.Artifact{
			{ID: tail, RunID: l.Run.ID, Type: "blob"},
			{ID: out, RunID: l.Run.ID, Type: "blob"},
		}
		l.Events = []provenance.Event{
			{Seq: 1, RunID: l.Run.ID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: tail},
			{Seq: 2, RunID: l.Run.ID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
		}
		return l
	}
	i := 0
	patch := timeRunsExact(func() {
		if err := cached.PutRunLog(extend(i)); err != nil {
			panic(err)
		}
		i++
	}, 5)
	postPatch := timeRunsExact(func() {
		if _, err := cached.Closure(head, store.Down); err != nil {
			panic(err)
		}
	}, 7)
	if err := verify(head, store.Down); err != nil {
		return errResult("E13", err)
	}
	m := cached.Metrics()
	if m.Patched == 0 {
		return errResult("E13", fmt.Errorf("ingests never patched a cached closure (metrics %+v)", m))
	}

	speedup := float64(cold) / float64(warm)
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %14s\n", "measure (file backend, depth 128)", "value")
	fmt.Fprintf(&b, "%-44s %14s\n", "cold pushed-down Closure", cold)
	fmt.Fprintf(&b, "%-44s %14s\n", "warm cached Closure", warm)
	fmt.Fprintf(&b, "%-44s %13.1fx\n", "warm speedup", speedup)
	fmt.Fprintf(&b, "%-44s %14s\n", "ingest + incremental patch", patch)
	fmt.Fprintf(&b, "%-44s %14s\n", "first query after patch (still warm)", postPatch)
	fmt.Fprintf(&b, "%-44s %14d\n", "closures patched in place", m.Patched)
	fmt.Fprintf(&b, "%-44s %14d\n", "closures evicted", m.Evicted)
	fmt.Fprintf(&b, "%-44s %14s\n", "cached == NaiveClosure", "verified")
	return Result{
		ID:    "E13",
		Title: "incremental closure maintenance: cold vs warm vs ingest-time patch (file backend)",
		Table: b.String(),
		Metrics: []Metric{
			{Name: "closure_cold_file_d128", Value: float64(cold.Nanoseconds()), Unit: "ns"},
			{Name: "closure_warm_file_d128", Value: float64(warm.Nanoseconds()), Unit: "ns"},
			{Name: "closure_warm_speedup_file_d128", Value: speedup, Unit: "x"},
			{Name: "ingest_incremental_patch_file", Value: float64(patch.Nanoseconds()), Unit: "ns"},
			{Name: "closure_post_patch_file_d128", Value: float64(postPatch.Nanoseconds()), Unit: "ns"},
		},
	}
}

// E14Seed builds the E14 base graph: one root artifact feeding `layers`
// layers of `runsPerLayer` runs, each consuming one previous-layer artifact
// and generating `fanout` artifacts — a wide DAG whose downstream closure
// from the root is a few large BFS frontiers, the shape the frontier-
// batched scatter/gather is designed for. Returns the logs and the last
// layer's artifact IDs (the attachment points for ingested runs).
func E14Seed(layers, runsPerLayer, fanout int) ([]*provenance.RunLog, []string) {
	root := &provenance.RunLog{}
	root.Run = provenance.Run{ID: "e14-seed-root", WorkflowID: "e14", Status: provenance.StatusOK}
	root.Executions = []*provenance.Execution{{ID: "e14-root-exec", RunID: root.Run.ID, ModuleID: "src", ModuleType: "Synth", Status: provenance.StatusOK}}
	root.Artifacts = []*provenance.Artifact{{ID: "e14-root-art", RunID: root.Run.ID, Type: "blob"}}
	root.Events = []provenance.Event{{Seq: 1, RunID: root.Run.ID, Kind: provenance.EventArtifactGen, ExecutionID: "e14-root-exec", ArtifactID: "e14-root-art"}}
	logs := []*provenance.RunLog{root}
	prev := []string{"e14-root-art"}
	for l := 0; l < layers; l++ {
		var next []string
		for r := 0; r < runsPerLayer; r++ {
			runID := fmt.Sprintf("e14-seed-%d-%03d", l, r)
			in := prev[r%len(prev)]
			lg := &provenance.RunLog{}
			lg.Run = provenance.Run{ID: runID, WorkflowID: "e14", Status: provenance.StatusOK}
			exec := fmt.Sprintf("e14-sx-%d-%03d", l, r)
			lg.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "m", ModuleType: "Synth", Status: provenance.StatusOK}}
			lg.Artifacts = []*provenance.Artifact{{ID: in, RunID: runID, Type: "blob"}}
			lg.Events = []provenance.Event{{Seq: 1, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in}}
			seq := uint64(1)
			for f := 0; f < fanout; f++ {
				out := fmt.Sprintf("e14-sa-%d-%03d-%d", l, r, f)
				lg.Artifacts = append(lg.Artifacts, &provenance.Artifact{ID: out, RunID: runID, Type: "blob"})
				seq++
				lg.Events = append(lg.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
				next = append(next, out)
			}
			logs = append(logs, lg)
		}
		prev = next
	}
	return logs, prev
}

// E14Run synthesizes one small ingest run consuming `in` and generating one
// fresh artifact — the steady-state "publish a derived result" unit of the
// E14 workload.
func E14Run(tag string, i int, in string) *provenance.RunLog {
	runID := fmt.Sprintf("e14-%s-run-%06d", tag, i)
	exec := fmt.Sprintf("e14-%s-exec-%06d", tag, i)
	out := fmt.Sprintf("e14-%s-art-%06d", tag, i)
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: "e14", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "pub", ModuleType: "Synth", Status: provenance.StatusOK}}
	l.Artifacts = []*provenance.Artifact{{ID: in, RunID: runID, Type: "blob"}, {ID: out, RunID: runID, Type: "blob"}}
	l.Events = []provenance.Event{
		{Seq: 1, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in},
		{Seq: 2, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
	}
	return l
}

// E14 measures sharded-store scaling at 1, 2, 4 and 8 durable file-backed
// shards (every accepted run fsyncs its shard's log), in the scenario
// the sharding ROADMAP item names: a store that must absorb ingest and
// serve traversals at the same time, where single-log backends bottleneck
// both on one lock and one file.
//
// Three measurements per shard count, all over the same wide seed DAG:
//
//   - quiet ingest: 320 runs through 16 concurrent writers with no query
//     load. Sharding's win here is commit-latency overlap (concurrent runs
//     placed on different shards fsync in parallel), bounded on a
//     single-core host by the serial CPU share of each append.
//   - cold closure: the downstream closure of the seed root (every
//     derived artifact and execution), scatter/gathered per BFS hop. This
//     is the price side of the router: per-hop fan-out overhead against
//     the single store's one-lock BFS.
//   - mixed workload (the headline): fixed 700ms windows (median of three)
//     of 8 writers publishing runs while one query worker sweeps the
//     root's downstream closure continuously — the recall/invalidation
//     sweep of §2.3 run against a live store. On a single shard every sweep holds the one
//     store lock for its whole BFS and ingest throughput collapses; on a
//     sharded store the sweep takes each shard lock only per hop, so
//     writers stream between hops. Both achieved rates are reported; the
//     acceptance metric is the mixed-load ingest speedup.
func E14() Result {
	const (
		quietRuns    = 320
		quietWriters = 16
		mixedWriters = 8
		window       = 700 * time.Millisecond
	)
	var b strings.Builder
	var metrics []Metric
	fmt.Fprintf(&b, "%-8s %12s %9s %12s %14s %9s %12s %12s\n",
		"shards", "quiet runs/s", "speedup", "closure", "mixed runs/s", "speedup", "queries/s", "query avg")
	quietBase, mixedBase := 0.0, 0.0
	for _, nShards := range []int{1, 2, 4, 8} {
		dir, err := tempDir()
		if err != nil {
			return errResult("E14", err)
		}
		r, err := shardedstore.Open(dir, nShards, true)
		if err != nil {
			return errResult("E14", err)
		}
		seedLogs, lastLayer := E14Seed(4, 16, 3)
		for _, l := range seedLogs {
			if err := r.PutRunLog(l); err != nil {
				r.Close()
				return errResult("E14", err)
			}
		}

		// Quiet durable ingest: 320 runs, 16 writers, no queries.
		var quietErr atomic.Value
		work := make(chan *provenance.RunLog, quietRuns)
		for i := 0; i < quietRuns; i++ {
			work <- E14Run("q", i, lastLayer[i%len(lastLayer)])
		}
		close(work)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < quietWriters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for l := range work {
					if err := r.PutRunLog(l); err != nil {
						quietErr.Store(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err, _ := quietErr.Load().(error); err != nil {
			r.Close()
			return errResult("E14", err)
		}
		quietRPS := float64(quietRuns) / time.Since(start).Seconds()

		// Cold scatter/gather closure of the root's full downstream.
		var closureLen int
		closure := timeRuns(func() {
			got, err := r.Closure("e14-root-art", store.Down)
			if err != nil {
				panic(err)
			}
			closureLen = len(got)
		}, 5)
		if closureLen == 0 {
			r.Close()
			return errResult("E14", fmt.Errorf("empty root closure"))
		}

		// Mixed workload: continuous closure sweeps + concurrent publishers.
		// Scheduler and lock-handoff dynamics make one window noisy, so the
		// reported rates are the median-by-ingest-rate of three windows.
		type mixedSample struct {
			rps, qps float64
			queryAvg time.Duration
		}
		var samples []mixedSample
		for trial := 0; trial < 3; trial++ {
			var stop atomic.Bool
			var ingested, queried atomic.Int64
			var queryNanos atomic.Int64
			var mixedErr atomic.Value
			wg = sync.WaitGroup{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					qs := time.Now()
					if _, err := r.Closure("e14-root-art", store.Down); err != nil {
						mixedErr.Store(err)
						return
					}
					queryNanos.Add(int64(time.Since(qs)))
					queried.Add(1)
				}
			}()
			for w := 0; w < mixedWriters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						l := E14Run(fmt.Sprintf("t%dw%d", trial, w), i, lastLayer[(w*7919+i)%len(lastLayer)])
						if err := r.PutRunLog(l); err != nil {
							mixedErr.Store(err)
							return
						}
						ingested.Add(1)
					}
				}(w)
			}
			time.Sleep(window)
			stop.Store(true)
			wg.Wait()
			if err, _ := mixedErr.Load().(error); err != nil {
				r.Close()
				return errResult("E14", err)
			}
			s := mixedSample{
				rps: float64(ingested.Load()) / window.Seconds(),
				qps: float64(queried.Load()) / window.Seconds(),
			}
			if n := queried.Load(); n > 0 {
				s.queryAvg = time.Duration(queryNanos.Load() / n)
			}
			samples = append(samples, s)
		}
		r.Close()
		sort.Slice(samples, func(i, j int) bool { return samples[i].rps < samples[j].rps })
		med := samples[len(samples)/2]
		mixedRPS, queriesPS, queryAvg := med.rps, med.qps, med.queryAvg

		quietSpeedup, mixedSpeedup := 1.0, 1.0
		if quietBase == 0 {
			quietBase, mixedBase = quietRPS, mixedRPS
		} else {
			quietSpeedup = quietRPS / quietBase
			mixedSpeedup = mixedRPS / mixedBase
		}
		fmt.Fprintf(&b, "%-8d %12.0f %8.2fx %12s %14.0f %8.2fx %12.0f %12s\n",
			nShards, quietRPS, quietSpeedup, closure, mixedRPS, mixedSpeedup,
			queriesPS, queryAvg.Round(time.Microsecond))
		metrics = append(metrics,
			Metric{Name: fmt.Sprintf("ingest_quiet_runs_per_sec_shards%d", nShards), Value: quietRPS, Unit: "runs/s"},
			Metric{Name: fmt.Sprintf("ingest_quiet_speedup_shards%d", nShards), Value: quietSpeedup, Unit: "x"},
			Metric{Name: fmt.Sprintf("closure_cold_wide_shards%d", nShards), Value: float64(closure.Nanoseconds()), Unit: "ns"},
			Metric{Name: fmt.Sprintf("ingest_mixed_runs_per_sec_shards%d", nShards), Value: mixedRPS, Unit: "runs/s"},
			Metric{Name: fmt.Sprintf("ingest_mixed_speedup_shards%d", nShards), Value: mixedSpeedup, Unit: "x"},
			Metric{Name: fmt.Sprintf("query_mixed_per_sec_shards%d", nShards), Value: queriesPS, Unit: "q/s"},
			Metric{Name: fmt.Sprintf("query_mixed_avg_ms_shards%d", nShards), Value: float64(queryAvg.Milliseconds()), Unit: "ms"})
	}
	fmt.Fprintf(&b, "mixed workload: 8 publishers + 1 continuous downstream-closure sweep, median of 3×700ms windows, durable (fsync) shards\n")
	return Result{
		ID:      "E14",
		Title:   "sharded store: ingest throughput (quiet and under query load) and closure latency vs shard count",
		Table:   b.String(),
		Metrics: metrics,
	}
}

// E15ChainRun synthesizes run i of a dependency chain: it consumes the
// previous run's artifact and generates one new artifact, so the whole
// store folds into one deep lineage — the shape whose closure the warm
// reopen must serve without replaying the log.
func E15ChainRun(i int) *provenance.RunLog {
	runID := fmt.Sprintf("e15-run-%06d", i)
	exec := fmt.Sprintf("e15-exec-%06d", i)
	in := fmt.Sprintf("e15-art-%06d", i)
	out := fmt.Sprintf("e15-art-%06d", i+1)
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: "e15", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "step", ModuleType: "Synth", Status: provenance.StatusOK}}
	l.Artifacts = []*provenance.Artifact{{ID: in, RunID: runID, Type: "blob"}, {ID: out, RunID: runID, Type: "blob"}}
	l.Events = []provenance.Event{
		{Seq: 1, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in},
		{Seq: 2, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
	}
	return l
}

// E15 measures the write-ahead group-commit and checkpoint subsystem
// (internal/store/wal) on the durable file backend:
//
//   - Durable ingest throughput under 16 concurrent writers, per-append
//     fsync vs group commit over the same 480-run workload. Group commit
//     coalesces the concurrent appends into shared batches — the fsync
//     count drops by roughly the achieved batch size, and throughput
//     rises with it because the fsync latency is the write path's
//     dominant cost.
//   - Restart latency on a 1500-run store: a cold reopen (full log scan +
//     cold deep closure) vs a reopen from checkpoint (snapshot load, log
//     suffix replay only, closure served warm from the persisted closure
//     cache). The warm closure is verified set-equal to the cold one.
func E15() Result {
	const (
		writers    = 16
		ingestRuns = 480
		chainLen   = 1500
	)

	// --- durable ingest: fsync-per-append vs group commit ---------------
	ingest := func(d store.Durability) (rps float64, syncs uint64, err error) {
		dir, err := tempDir()
		if err != nil {
			return 0, 0, err
		}
		fs, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: d})
		if err != nil {
			return 0, 0, err
		}
		defer fs.Close()
		work := make(chan *provenance.RunLog, ingestRuns)
		for i := 0; i < ingestRuns; i++ {
			work <- E14Run("e15-"+d.String(), i, fmt.Sprintf("e15-in-%s-%03d", d, i%7))
		}
		close(work)
		// First error wins; a buffered channel avoids atomic.Value's
		// inconsistently-typed-store panic across distinct error types.
		ingestErr := make(chan error, 1)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for l := range work {
					if err := fs.PutRunLog(l); err != nil {
						select {
						case ingestErr <- err:
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-ingestErr:
			return 0, 0, err
		default:
		}
		return float64(ingestRuns) / elapsed.Seconds(), fs.WALMetrics().Syncs, nil
	}
	fsyncRPS, fsyncSyncs, err := ingest(store.DurabilityFsync)
	if err != nil {
		return errResult("E15", err)
	}
	groupRPS, groupSyncs, err := ingest(store.DurabilityGroup)
	if err != nil {
		return errResult("E15", err)
	}
	if groupSyncs == 0 {
		return errResult("E15", fmt.Errorf("group commit issued no fsyncs"))
	}
	ingestSpeedup := groupRPS / fsyncRPS
	fsyncReduction := float64(fsyncSyncs) / float64(groupSyncs)

	// --- restart: cold reopen vs reopen from checkpoint ------------------
	dir, err := tempDir()
	if err != nil {
		return errResult("E15", err)
	}
	build, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		return errResult("E15", err)
	}
	cache := closurecache.New(build, closurecache.Options{SnapshotDir: dir})
	for i := 0; i < chainLen; i++ {
		if err := cache.PutRunLog(E15ChainRun(i)); err != nil {
			return errResult("E15", err)
		}
	}
	head := "e15-art-000000"
	want, err := cache.Closure(head, store.Down) // warm the deep closure
	if err != nil {
		return errResult("E15", err)
	}
	if err := cache.Checkpoint(); err != nil {
		return errResult("E15", err)
	}
	if err := cache.Close(); err != nil {
		return errResult("E15", err)
	}

	var warmLen int
	reopenWarm := timeRunsExact(func() {
		fs, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
		if err != nil {
			panic(err)
		}
		c := closurecache.New(fs, closurecache.Options{SnapshotDir: dir})
		if m := c.Metrics(); m.Restored == 0 {
			panic("warm reopen restored no closures")
		}
		got, err := c.Closure(head, store.Down)
		if err != nil {
			panic(err)
		}
		if m := c.Metrics(); m.ClosureHits != 1 {
			panic("reopened closure was not served warm")
		}
		warmLen = len(got)
		c.Close()
	}, 5)

	// Force the cold path: no store checkpoint, no cache snapshot.
	if err := wal.RemoveCheckpoint(store.CheckpointPath(dir)); err != nil {
		return errResult("E15", err)
	}
	if err := wal.RemoveCheckpoint(closurecache.SnapshotPath(dir)); err != nil {
		return errResult("E15", err)
	}
	var coldLen int
	reopenCold := timeRunsExact(func() {
		fs, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
		if err != nil {
			panic(err)
		}
		got, err := fs.Closure(head, store.Down)
		if err != nil {
			panic(err)
		}
		coldLen = len(got)
		fs.Close()
	}, 5)
	if coldLen != warmLen || coldLen != len(want) {
		return errResult("E15", fmt.Errorf("warm closure diverged: cold %d, warm %d, built %d nodes", coldLen, warmLen, len(want)))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %14s\n", "measure", "value")
	fmt.Fprintf(&b, "%-52s %14.0f\n", fmt.Sprintf("durable ingest, fsync/append (%d writers), runs/s", writers), fsyncRPS)
	fmt.Fprintf(&b, "%-52s %14.0f\n", fmt.Sprintf("durable ingest, group commit (%d writers), runs/s", writers), groupRPS)
	fmt.Fprintf(&b, "%-52s %13.1fx\n", "group-commit ingest speedup", ingestSpeedup)
	fmt.Fprintf(&b, "%-52s %14d\n", "fsyncs, fsync/append mode", fsyncSyncs)
	fmt.Fprintf(&b, "%-52s %14d\n", "fsyncs, group-commit mode", groupSyncs)
	fmt.Fprintf(&b, "%-52s %13.1fx\n", "fsync reduction (≈ achieved batch size)", fsyncReduction)
	fmt.Fprintf(&b, "%-52s %14s\n", fmt.Sprintf("cold reopen + closure (%d-run log, full scan)", chainLen), reopenCold.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-52s %14s\n", "reopen from checkpoint + warm closure", reopenWarm.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-52s %14s\n", "warm closure == cold closure", "verified")
	return Result{
		ID:    "E15",
		Title: "WAL group commit + checkpoint: durable ingest throughput and warm restarts",
		Table: b.String(),
		Metrics: []Metric{
			{Name: "ingest_fsync_runs_per_sec", Value: fsyncRPS, Unit: "runs/s"},
			{Name: "ingest_group_runs_per_sec", Value: groupRPS, Unit: "runs/s"},
			{Name: "ingest_group_speedup_x", Value: ingestSpeedup, Unit: "x"},
			{Name: "fsync_reduction_x", Value: fsyncReduction, Unit: "x"},
			{Name: "reopen_cold_ns", Value: float64(reopenCold.Nanoseconds()), Unit: "ns"},
			{Name: "reopen_warm_ns", Value: float64(reopenWarm.Nanoseconds()), Unit: "ns"},
		},
	}
}

// E16ChainRun synthesizes run i of the E16 deep chain (the same shape as
// E15's, in its own namespace): it consumes e16-art-i and generates
// e16-art-i+1, so the tail artifact's upstream closure walks every run.
func E16ChainRun(i int) *provenance.RunLog {
	runID := fmt.Sprintf("e16-run-%06d", i)
	exec := fmt.Sprintf("e16-exec-%06d", i)
	in := fmt.Sprintf("e16-art-%06d", i)
	out := fmt.Sprintf("e16-art-%06d", i+1)
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: "e16", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "step", ModuleType: "Synth", Status: provenance.StatusOK}}
	l.Artifacts = []*provenance.Artifact{{ID: in, RunID: runID, Type: "blob"}, {ID: out, RunID: runID, Type: "blob"}}
	l.Events = []provenance.Event{
		{Seq: 1, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in},
		{Seq: 2, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
	}
	return l
}

// E16 measures the closure pushdown on the workload the sharding ROADMAP
// item flagged as a regression: a depth-128 chain-shaped lineage over 4
// file-backed shards, where the pre-pushdown router paid one global
// scatter/gather round per BFS hop (257 rounds for this chain) and a
// single FileStore answers the whole closure under one lock.
//
// The pushdown runs each shard's closure to local fixpoint and exchanges
// only the cross-shard frontier between rounds, so rounds collapse to the
// chain's cross-shard crossings (+1); placement keeps the chain on one
// shard until the balance guard splits it once. The experiment asserts
// that bound against the shards' run lists, verifies the pushdown's visit
// order equals the single store's exactly, and reports absolute times for
// the per-hop path, the pushdown and the single store. It also reports the
// allocation count of one wide fan-out Expand hop — the buffer-reuse
// observable of the router's scratch pooling.
func E16() Result {
	const (
		chainRuns = 128
		nShards   = 4
	)
	logs := make([]*provenance.RunLog, chainRuns)
	for i := range logs {
		logs[i] = E16ChainRun(i)
	}
	tail := fmt.Sprintf("e16-art-%06d", chainRuns)

	// Single FileStore reference: one-lock BFS over the resident index.
	singleDir, err := tempDir()
	if err != nil {
		return errResult("E16", err)
	}
	fs, err := store.OpenFileStore(singleDir)
	if err != nil {
		return errResult("E16", err)
	}
	defer fs.Close()
	for _, l := range logs {
		if err := fs.PutRunLog(l); err != nil {
			return errResult("E16", err)
		}
	}
	var want []string
	single := timeRunsExact(func() {
		got, err := fs.Closure(tail, store.Up)
		if err != nil {
			panic(err)
		}
		want = got
	}, 21)
	if len(want) != 2*chainRuns {
		return errResult("E16", fmt.Errorf("chain closure has %d nodes, want %d", len(want), 2*chainRuns))
	}

	// Sharded router over the same chain.
	shardDir, err := tempDir()
	if err != nil {
		return errResult("E16", err)
	}
	r, err := shardedstore.Open(shardDir, nShards, false)
	if err != nil {
		return errResult("E16", err)
	}
	defer r.Close()
	for _, l := range logs {
		if err := r.PutRunLog(l); err != nil {
			return errResult("E16", err)
		}
	}

	// Pre-pushdown path: one scatter/gather Expand round per BFS hop.
	legacyRounds := 0
	if _, err := store.CloseOverExpand(func(ids []string, dir store.Direction) (map[string][]string, error) {
		legacyRounds++
		return r.Expand(ids, dir)
	}, tail, store.Up); err != nil {
		return errResult("E16", err)
	}
	legacy := timeRunsExact(func() {
		if _, err := store.CloseOverExpand(r.Expand, tail, store.Up); err != nil {
			panic(err)
		}
	}, 21)

	// Pushdown: local fixpoints + cross-shard frontier exchange.
	var trace shardedstore.ClosureTrace
	var got []string
	pushdown := timeRunsExact(func() {
		ids, tr, err := r.TracedClosure(tail, store.Up)
		if err != nil {
			panic(err)
		}
		got, trace = ids, tr
	}, 21)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return errResult("E16", fmt.Errorf("pushdown closure diverged from single store: %d vs %d nodes", len(got), len(want)))
	}
	// Independent crossing count: the chain's upstream walk hands off
	// between shards exactly where consecutive runs live on different
	// shards. Computed from the shards' own run lists — NOT from the trace
	// — so a pushdown that degrades toward one hop per round fails this
	// check instead of inflating its own crossing counter to match.
	shardOf := map[string]int{}
	for si := 0; si < r.NumShards(); si++ {
		runs, err := r.Shard(si).Runs()
		if err != nil {
			return errResult("E16", err)
		}
		for _, id := range runs {
			shardOf[id] = si
		}
	}
	independentCrossings := 0
	for i := 1; i < chainRuns; i++ {
		if shardOf[logs[i].Run.ID] != shardOf[logs[i-1].Run.ID] {
			independentCrossings++
		}
	}
	if trace.Rounds != independentCrossings+1 || trace.Crossings != independentCrossings {
		return errResult("E16", fmt.Errorf("pushdown executed %d rounds / %d crossings; run placement implies exactly %d crossings (+1 round)",
			trace.Rounds, trace.Crossings, independentCrossings))
	}

	// Wide fan-out Expand allocations: one hop over the E14 wide DAG's
	// last layer, upstream (every probe fans to a generator shard). The
	// router's pooled scratch keeps this flat per hop.
	wide := shardedstore.NewMem(nShards)
	seedLogs, lastLayer := E14Seed(3, 16, 3)
	for _, l := range seedLogs {
		if err := wide.PutRunLog(l); err != nil {
			return errResult("E16", err)
		}
	}
	allocs := testing.AllocsPerRun(64, func() {
		if _, err := wide.Expand(lastLayer, store.Up); err != nil {
			panic(err)
		}
	})

	speedup := float64(legacy) / float64(pushdown)
	roundsReduction := float64(legacyRounds) / float64(trace.Rounds)
	vsSingle := float64(single) / float64(pushdown)
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %14s\n", "measure (depth-128 chain, 4 file shards)", "value")
	fmt.Fprintf(&b, "%-52s %14s\n", "single FileStore closure (one-lock BFS)", single)
	fmt.Fprintf(&b, "%-52s %14s\n", fmt.Sprintf("sharded per-hop closure (%d rounds)", legacyRounds), legacy)
	fmt.Fprintf(&b, "%-52s %14s\n", fmt.Sprintf("sharded pushdown closure (%d rounds)", trace.Rounds), pushdown)
	fmt.Fprintf(&b, "%-52s %13.1fx\n", "pushdown speedup over per-hop", speedup)
	fmt.Fprintf(&b, "%-52s %13.1fx\n", "rounds reduction", roundsReduction)
	fmt.Fprintf(&b, "%-52s %14d\n", "cross-shard crossings", trace.Crossings)
	fmt.Fprintf(&b, "%-52s %14s\n", "rounds == placement crossings + 1", "verified")
	fmt.Fprintf(&b, "%-52s %13.2fx\n", "single-store time / pushdown time", vsSingle)
	fmt.Fprintf(&b, "%-52s %14.0f\n", "allocs per wide fan-out Expand hop", allocs)
	fmt.Fprintf(&b, "%-52s %14s\n", "pushdown order == single-store order", "verified")
	return Result{
		ID:    "E16",
		Title: "closure pushdown: deep chain lineage over shards, local fixpoints + frontier exchange",
		Table: b.String(),
		Metrics: []Metric{
			{Name: "deep_closure_single_file_ns", Value: float64(single.Nanoseconds()), Unit: "ns"},
			{Name: "deep_closure_legacy_ns", Value: float64(legacy.Nanoseconds()), Unit: "ns"},
			{Name: "deep_closure_pushdown_ns", Value: float64(pushdown.Nanoseconds()), Unit: "ns"},
			{Name: "deep_closure_pushdown_speedup_x", Value: speedup, Unit: "x"},
			{Name: "deep_closure_rounds", Value: float64(trace.Rounds), Unit: "rounds"},
			{Name: "deep_closure_crossings", Value: float64(trace.Crossings), Unit: "crossings"},
			{Name: "deep_closure_rounds_reduction_x", Value: roundsReduction, Unit: "x"},
			{Name: "deep_closure_vs_single_file_x", Value: vsSingle, Unit: "x"},
			{Name: "expand_wide_allocs_per_op", Value: allocs, Unit: "allocs"},
		},
	}
}

// E17SynthLog synthesizes run i of the E17 query workload: a chain of
// execsPerRun module executions, each consuming its predecessor's output
// artifact. Module types cycle through a fixed palette, every 16th
// execution fails (the selective predicate the pushdown exploits), and
// every 4th artifact is an image (a second, milder filter).
func E17SynthLog(i, execsPerRun int) *provenance.RunLog {
	runID := fmt.Sprintf("e17-run-%06d", i)
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: fmt.Sprintf("wf-%d", i%4), Agent: fmt.Sprintf("agent-%d", i%3), Status: provenance.StatusOK}
	types := []string{"Ingest", "Clean", "Contour", "Render", "Stat", "Publish"}
	var seq uint64
	prev := fmt.Sprintf("e17-art-%06d-in", i)
	l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: prev, RunID: runID, Type: "blob"})
	for j := 0; j < execsPerRun; j++ {
		exec := fmt.Sprintf("e17-exec-%06d-%02d", i, j)
		out := fmt.Sprintf("e17-art-%06d-%02d", i, j)
		status := provenance.StatusOK
		if (i*execsPerRun+j)%16 == 0 {
			status = provenance.StatusFailed
		}
		atype := "blob"
		if j%4 == 3 {
			atype = "image"
		}
		l.Executions = append(l.Executions, &provenance.Execution{
			ID: exec, RunID: runID, ModuleID: fmt.Sprintf("m%d", j),
			ModuleType: types[j%len(types)], Status: status,
		})
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: out, RunID: runID, Type: atype})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: prev})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
		prev = out
	}
	return l
}

// E17Queries is the E17 multi-join PQL battery: every query joins two
// provenance tables; two carry selective predicates the streaming
// planner pushes below the join, one is an unselective count, one sorts
// and truncates. Exported so BenchmarkE17StreamingExec replays the same
// workload.
var E17Queries = []string{
	"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE status = 'fail' ORDER BY artifact",
	"SELECT exec, type FROM gens JOIN artifacts ON artifact = artifacts.id WHERE type = 'image' ORDER BY exec",
	"SELECT workflow, module FROM runs JOIN executions ON runs.id = run WHERE moduleType = 'Contour' ORDER BY module LIMIT 50",
	"SELECT COUNT(*) FROM executions JOIN uses ON executions.id = exec WHERE status = 'ok'",
}

// E17 measures the query executors in absolute units on a multi-join PQL
// workload plus the Datalog provenance fixpoint, over a 64-run synthetic
// store (384 executions, ~832 use/gen events): median battery latency on
// a MemStore and behind a 4-shard router (parallel leaf scan), allocated
// bytes per battery, and the fixpoint's latency and derived-fact count.
// The sharded answers are checked against the unsharded ones first. What
// the retired ratio gates guarded — selections pushed below the join, no
// materialized intermediates — is pinned by deterministic tests in
// internal/query/pql (per-operator row counts and an allocation ceiling
// on this same store and battery).
func E17() Result {
	const (
		nRuns       = 64
		execsPerRun = 6
	)
	mem := store.NewMemStore()
	sharded := shardedstore.NewMem(4)
	for i := 0; i < nRuns; i++ {
		l := E17SynthLog(i, execsPerRun)
		if err := mem.PutRunLog(l); err != nil {
			return errResult("E17", err)
		}
		if err := sharded.PutRunLog(E17SynthLog(i, execsPerRun)); err != nil {
			return errResult("E17", err)
		}
	}

	queries := make([]*pql.Query, len(E17Queries))
	for i, src := range E17Queries {
		q, err := pql.Parse(src)
		if err != nil {
			return errResult("E17", err)
		}
		queries[i] = q
	}

	var rows int
	for i, q := range queries {
		want, err := pql.Execute(mem, q)
		if err != nil {
			return errResult("E17", err)
		}
		got, err := pql.Execute(sharded, q)
		if err != nil {
			return errResult("E17", err)
		}
		if fmt.Sprint(want.Columns) != fmt.Sprint(got.Columns) || fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
			return errResult("E17", fmt.Errorf("query %d: sharded answer diverged from unsharded", i))
		}
		rows += len(want.Rows)
	}

	battery := func(s store.Store) func() {
		return func() {
			for _, q := range queries {
				if _, err := pql.Execute(s, q); err != nil {
					panic(err)
				}
			}
		}
	}
	memT := timeRunsExact(battery(mem), 21)
	shardedT := timeRunsExact(battery(sharded), 21)
	allocBytes := allocBytesPerRun(battery(mem), 8)

	// Datalog provenance fixpoint over the same store; program build cost
	// is inside the timing.
	derived := 0
	fixpoint := func() {
		p, err := datalog.NewProvenanceProgram(mem)
		if err != nil {
			panic(err)
		}
		derived = p.Evaluate()
	}
	dlT := timeRunsExact(fixpoint, 7)

	var b strings.Builder
	fmt.Fprintf(&b, "%-56s %14s\n", fmt.Sprintf("measure (%d runs, %d-query join battery, %d rows)", nRuns, len(queries), rows), "value")
	fmt.Fprintf(&b, "%-56s %14s\n", "battery, MemStore", memT)
	fmt.Fprintf(&b, "%-56s %14s\n", "battery, 4-shard parallel scan", shardedT)
	fmt.Fprintf(&b, "%-56s %14d\n", "alloc bytes / battery", allocBytes)
	fmt.Fprintf(&b, "%-56s %14s\n", "datalog fixpoint (incl. program build)", dlT)
	fmt.Fprintf(&b, "%-56s %14d\n", "datalog derived facts", derived)
	fmt.Fprintf(&b, "%-56s %14s\n", "sharded results == unsharded results", "verified")
	return Result{
		ID:    "E17",
		Title: "streaming query executor: join battery and Datalog fixpoint, absolute",
		Table: b.String(),
		Metrics: []Metric{
			{Name: "exec_streaming_ns", Value: float64(memT.Nanoseconds()), Unit: "ns"},
			{Name: "exec_streaming_sharded_ns", Value: float64(shardedT.Nanoseconds()), Unit: "ns"},
			{Name: "exec_streaming_alloc_bytes", Value: float64(allocBytes), Unit: "B"},
			{Name: "datalog_streaming_ns", Value: float64(dlT.Nanoseconds()), Unit: "ns"},
			{Name: "datalog_derived_facts", Value: float64(derived), Unit: "facts"},
		},
	}
}

// allocBytesPerRun reports heap bytes allocated per invocation of fn,
// averaged over n runs after a warm-up call and a forced GC.
func allocBytesPerRun(fn func(), n int) uint64 {
	fn()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(n)
}

// --- helpers -----------------------------------------------------------------

func errResult(id string, err error) Result {
	return Result{ID: id, Title: "FAILED", Table: "error: " + err.Error() + "\n"}
}

func mustRun(e *engine.Engine, wf *workflow.Workflow) *engine.Result {
	res, err := e.Run(context.Background(), wf, nil)
	if err != nil {
		panic(err)
	}
	if res.Status != provenance.StatusOK {
		panic(fmt.Sprintf("run failed: %v", res.Failed))
	}
	return res
}

// timeRuns returns the median duration of n invocations, rounded for
// display.
func timeRuns(fn func(), n int) time.Duration {
	return timeRunsExact(fn, n).Round(time.Microsecond)
}

// timeRunsExact is timeRuns without the microsecond rounding, for
// sub-microsecond measurements such as cache hits.
func timeRunsExact(fn func(), n int) time.Duration {
	times := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[n/2]
}

func tempDir() (string, error) {
	return tempDirImpl()
}

func short(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}
