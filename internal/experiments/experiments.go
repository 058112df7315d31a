// Package experiments implements the paper-reproduction suite E1–E12. Each
// experiment returns a formatted table; cmd/provbench prints them. The
// paper (a tutorial) has no numeric tables of its own: E1 and E2 reproduce
// its two figures, and E3–E12 quantify the claims its prose makes about
// the systems it surveys.
package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/analogy"
	"repro/internal/collab"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/experiments/survey"
	"repro/internal/interop"
	"repro/internal/params"
	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/pql"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// Metric is one machine-readable measurement of an experiment, emitted by
// cmd/provbench as BENCH_<ID>.json.
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

// Suite lists every experiment in order — its ID, a one-line title and
// the function that runs it. All, ByID and provbench -list read it.
var Suite = []struct {
	ID, Title string
	Run       func() Result
}{
	{"E1", "Figure 1: prospective vs retrospective provenance", E1},
	{"E2", "Figure 2: workflow refinement by analogy", E2},
	{"E3", "capture overhead", E3},
	{"E4", "lineage query latency per backend", E4},
	{"E5", "user views: overload reduction", E5},
	{"E6", "query languages on the same lineage", E6},
	{"E7", "Provenance Challenge integration", E7},
	{"E8", "version-tree scaling", E8},
	{"E9", "why-provenance overhead", E9},
	{"E10", "parameter sweep throughput", E10},
	{"E11", "storage footprint per backend", E11},
	{"E12", "collaboratory search + recommendation", E12},
}

// All runs every experiment in order.
func All() []Result {
	out := make([]Result, len(Suite))
	for i, e := range Suite {
		out[i] = e.Run()
	}
	return out
}

// ByID runs one experiment.
func ByID(id string) (Result, error) {
	for _, e := range Suite {
		if strings.EqualFold(e.ID, id) {
			return e.Run(), nil
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q", id)
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
		fs, done, err := tempFileStore()
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
		done()
		fmt.Fprintf(&b, "%-10d %14s %14s %14s %8.2fx\n", n, off, on, file,
			float64(on)/float64(off))
	}
	return Result{ID: "E3", Title: "capture overhead (chain workflows, 5-run median)", Table: b.String()}
}

// surveyed is what E4 and E11 time on each storage model of the §2.2
// survey: the store package's MemStore, TripleStore and FileStore, and
// survey.RelStore.
type surveyed interface {
	Name() string
	PutRunLog(l *provenance.RunLog) error
	Expand(ids []string, dir store.Direction) (map[string][]string, error)
	Closure(seed string, dir store.Direction) ([]string, error)
	Stats() (store.Stats, error)
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
		fs, done, err := tempFileStore()
		if err != nil {
			return errResult("E4", err)
		}
		backends := []surveyed{store.NewMemStore(), survey.NewRelStore(), store.NewTripleStore(), fs}
		for _, s := range backends {
			if err := s.PutRunLog(log); err != nil {
				done()
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
		done()
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
		lin, err := mem.Closure(target, store.Up)
		if err != nil {
			panic(err)
		}
		bfsRows = len(lin)
	}, 5)
	fmt.Fprintf(&b, "%-34s %12s %8d\n", "native BFS (Store.Closure)", t, bfsRows)
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
		r, err := survey.RunSPARQL(ts, fmt.Sprintf(
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
	fs, done, err := tempFileStore()
	if err != nil {
		return errResult("E11", err)
	}
	defer done()
	backends := []surveyed{store.NewMemStore(), survey.NewRelStore(), store.NewTripleStore(), fs}
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
	times := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[n/2].Round(time.Microsecond)
}

// tempFileStore opens a file store for an experiment in a fresh temporary
// directory; done closes the store and removes the directory.
func tempFileStore() (fs *store.FileStore, done func(), err error) {
	dir, err := os.MkdirTemp("", "provbench-*")
	if err != nil {
		return nil, nil, err
	}
	if fs, err = store.OpenFileStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return fs, func() { fs.Close(); os.RemoveAll(dir) }, nil
}

func short(h string) string {
	if len(h) > 8 {
		return h[:8]
	}
	return h
}
