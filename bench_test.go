// Package repro's benchmark harness. BenchmarkE1–E12 regenerate the
// measurements of the paper-reproduction experiments cmd/provbench prints,
// at the mid-points of each experiment's sweep so the suite completes
// quickly. BenchmarkE13–E21, ColdClosure and ShardedReopen are per-layer
// micro-benchmarks of the system itself (closure cache, sharding, WAL,
// pushdown, replication, observability, standing queries, failover; E17's
// query battery lives in internal/query/pql); provload (bench/) measures
// the serving path end to end.
package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analogy"
	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/engine"
	"repro/internal/evolution"
	"repro/internal/experiments"
	"repro/internal/experiments/survey"
	"repro/internal/faultinject"
	"repro/internal/interop"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/pql"
	"repro/internal/query/standing"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/replica"
	"repro/internal/store/shardedstore"
	"repro/internal/store/wal"
	"repro/internal/views"
	"repro/internal/workloads"
)

func newBenchEngine(rec provenance.Recorder, cache *engine.Cache) *engine.Engine {
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	return engine.New(engine.Options{Registry: reg, Recorder: rec, Cache: cache, Workers: 4})
}

// chainLog runs an n-module chain once and returns the log plus the final
// artifact ID.
func chainLog(b *testing.B, n int) (*provenance.RunLog, string) {
	b.Helper()
	col := provenance.NewCollector()
	e := newBenchEngine(col, nil)
	res, err := e.Run(context.Background(), workloads.Chain(n), nil)
	if err != nil {
		b.Fatal(err)
	}
	log, err := col.Log(res.RunID)
	if err != nil {
		b.Fatal(err)
	}
	return log, res.Artifacts[fmt.Sprintf("s%02d.out", n-1)]
}

// synthRun is a one-execution run: it uses every artifact in ins and
// generates every artifact in outs.
func synthRun(runID, exec string, ins, outs []string) *provenance.RunLog {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: "bench", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "m", ModuleType: "Synth", Status: provenance.StatusOK}}
	add := func(id string, kind provenance.EventKind) {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: id, RunID: runID, Type: "blob"})
		l.Events = append(l.Events, provenance.Event{Seq: uint64(len(l.Events) + 1), RunID: runID, Kind: kind, ExecutionID: exec, ArtifactID: id})
	}
	for _, id := range ins {
		add(id, provenance.EventArtifactUsed)
	}
	for _, id := range outs {
		add(id, provenance.EventArtifactGen)
	}
	return l
}

// chainRun is run i of the dependency chain named ns: it uses
// <ns>-art-i and generates <ns>-art-i+1, so the last artifact's upstream
// closure walks every run.
func chainRun(ns string, i int) *provenance.RunLog {
	return synthRun(fmt.Sprintf("%s-run-%06d", ns, i), fmt.Sprintf("%s-exec-%06d", ns, i),
		[]string{fmt.Sprintf("%s-art-%06d", ns, i)}, []string{fmt.Sprintf("%s-art-%06d", ns, i+1)})
}

// wideSeed builds a wide DAG: one root artifact, e14-root-art, feeding
// `layers` layers of `runsPerLayer` runs, each using one previous-layer
// artifact and generating `fanout`. It returns the logs and the last
// layer's artifacts, where publishRun attaches.
func wideSeed(layers, runsPerLayer, fanout int) ([]*provenance.RunLog, []string) {
	logs := []*provenance.RunLog{synthRun("e14-seed-root", "e14-root-exec", nil, []string{"e14-root-art"})}
	prev := []string{"e14-root-art"}
	for l := 0; l < layers; l++ {
		var next []string
		for r := 0; r < runsPerLayer; r++ {
			var outs []string
			for f := 0; f < fanout; f++ {
				outs = append(outs, fmt.Sprintf("e14-sa-%d-%03d-%d", l, r, f))
			}
			logs = append(logs, synthRun(fmt.Sprintf("e14-seed-%d-%03d", l, r), fmt.Sprintf("e14-sx-%d-%03d", l, r),
				[]string{prev[r%len(prev)]}, outs))
			next = append(next, outs...)
		}
		prev = next
	}
	return logs, prev
}

// publishRun is one small ingest: it uses `in` and generates one fresh
// artifact, the steady-state "publish a derived result" unit.
func publishRun(tag string, i int, in string) *provenance.RunLog {
	return synthRun(fmt.Sprintf("e14-%s-run-%06d", tag, i), fmt.Sprintf("e14-%s-exec-%06d", tag, i),
		[]string{in}, []string{fmt.Sprintf("e14-%s-art-%06d", tag, i)})
}

// BenchmarkE1CaptureFigure1 executes the Figure 1 workflow with capture on.
func BenchmarkE1CaptureFigure1(b *testing.B) {
	wf := workloads.MedicalImaging()
	col := provenance.NewCollector()
	e := newBenchEngine(col, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), wf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Analogy applies the Figure 2 diff to a fresh target.
func BenchmarkE2Analogy(b *testing.B) {
	wa := workloads.DownloadAndRender()
	wb := workloads.DownloadAndRenderSmoothed()
	d := analogy.ComputeDiff(wa, wb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analogy.Apply(d, workloads.MedicalImaging()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3CaptureOverhead benchmarks a 50-module chain with capture
// on/off as sub-benchmarks.
func BenchmarkE3CaptureOverhead(b *testing.B) {
	wf := workloads.Chain(50)
	b.Run("capture=off", func(b *testing.B) {
		e := newBenchEngine(nil, nil)
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), wf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("capture=on", func(b *testing.B) {
		e := newBenchEngine(provenance.NewCollector(), nil)
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(context.Background(), wf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// lineageBackend is what the E4 benchmarks time on each storage model:
// the store package's backends and the survey's relational one.
type lineageBackend interface {
	Name() string
	PutRunLog(l *provenance.RunLog) error
	Expand(ids []string, dir store.Direction) (map[string][]string, error)
	Closure(seed string, dir store.Direction) ([]string, error)
}

// BenchmarkE4QueryLatency benchmarks lineage on a 100-module chain per
// backend.
func BenchmarkE4QueryLatency(b *testing.B) {
	log, target := chainLog(b, 100)
	fsDir := b.TempDir()
	fs, err := store.OpenFileStore(fsDir)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	backends := []lineageBackend{store.NewMemStore(), survey.NewRelStore(), store.NewTripleStore(), fs}
	for _, s := range backends {
		if err := s.PutRunLog(log); err != nil {
			b.Fatal(err)
		}
		b.Run("backend="+s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Closure(target, store.Up); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4bBatchVsPerEdge quantifies the batch-traversal win: the same
// depth-128 lineage closure once through the per-node reference BFS (one
// single-entity Expand per node, store.NaiveClosure) and once through the
// pushed-down batch Closure (O(hops) backend calls; zero disk reads on the
// file backend).
func BenchmarkE4bBatchVsPerEdge(b *testing.B) {
	log, target := chainLog(b, 128)
	fs, err := store.OpenFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	backends := []lineageBackend{store.NewMemStore(), survey.NewRelStore(), store.NewTripleStore(), fs}
	for _, s := range backends {
		if err := s.PutRunLog(log); err != nil {
			b.Fatal(err)
		}
		b.Run("backend="+s.Name()+"/mode=peredge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := store.NaiveClosure(s, target, store.Up); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("backend="+s.Name()+"/mode=batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Closure(target, store.Up); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5UserViews benchmarks abstraction of a 24-module chain run.
func BenchmarkE5UserViews(b *testing.B) {
	log, _ := chainLog(b, 24)
	v := views.NewView("bench")
	for i := 0; i < 24; i += 4 {
		var members []string
		for j := i; j < i+4; j++ {
			members = append(members, fmt.Sprintf("s%02d", j))
		}
		if err := v.Group(fmt.Sprintf("c%d", i/4), members...); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Abstract(log); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6QueryLanguages benchmarks the same lineage in each language.
func BenchmarkE6QueryLanguages(b *testing.B) {
	log, target := chainLog(b, 60)
	mem := store.NewMemStore()
	if err := mem.PutRunLog(log); err != nil {
		b.Fatal(err)
	}
	b.Run("lang=bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mem.Closure(target, store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lang=pql", func(b *testing.B) {
		q := fmt.Sprintf("LINEAGE OF '%s'", target)
		for i := 0; i < b.N; i++ {
			if _, err := pql.Run(mem, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lang=datalog", func(b *testing.B) {
		atom, err := datalog.ParseAtom(fmt.Sprintf("ancestor('%s', X)", target))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			p, err := datalog.NewProvenanceProgram(mem)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Query(atom); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7Interop benchmarks the full pipeline→export→integrate cycle.
func BenchmarkE7Interop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := interop.RunPipeline(4)
		if err != nil {
			b.Fatal(err)
		}
		graphs, err := interop.SystemGraphs(runs)
		if err != nil {
			b.Fatal(err)
		}
		merged, err := interop.Integrate(graphs...)
		if err != nil {
			b.Fatal(err)
		}
		if r := interop.RunSuite("integrated", merged); r.Answered != r.Total {
			b.Fatalf("integration regressed: %d/%d", r.Answered, r.Total)
		}
	}
}

// BenchmarkE8Evolution benchmarks materialization at depth 1000.
func BenchmarkE8Evolution(b *testing.B) {
	tree := evolution.NewTree("bench")
	at, err := tree.Commit(tree.Root(), "u", "import",
		evolution.ImportWorkflow(workloads.MedicalImaging()))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		at, err = tree.Commit(at, "u", "",
			[]evolution.Action{evolution.SetParamAction("contour", "isovalue", fmt.Sprint(i))})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Materialize(at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9DBProvenance benchmarks a provenance-tracking join of 500×500.
func BenchmarkE9DBProvenance(b *testing.B) {
	n := 500
	left := make([][]relalg.Val, n)
	right := make([][]relalg.Val, n)
	for i := 0; i < n; i++ {
		left[i] = []relalg.Val{int64(i % 50), int64(i)}
		right[i] = []relalg.Val{int64(i % 50), int64(1000 + i)}
	}
	l, err := relalg.NewRelation("l", []string{"k", "x"}, left)
	if err != nil {
		b.Fatal(err)
	}
	r, err := relalg.NewRelation("r", []string{"k", "y"}, right)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relalg.Join(l, r, "k", "k"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10ParamSweep benchmarks a 6-point sweep with caching.
func BenchmarkE10ParamSweep(b *testing.B) {
	base := workloads.Chain(6)
	for i := 0; i < 6; i++ {
		if err := base.SetParam(fmt.Sprintf("s%02d", i), "work", "500"); err != nil {
			b.Fatal(err)
		}
	}
	sweep := &params.Sweep{
		Base: base,
		Axes: []params.Axis{{ModuleID: "s05", Param: "work",
			Values: []string{"501", "502", "503", "504", "505", "506"}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newBenchEngine(nil, engine.NewCache())
		if _, err := params.Run(context.Background(), e, sweep, params.Options{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11StorageFootprint benchmarks ingesting a run into each backend.
func BenchmarkE11StorageFootprint(b *testing.B) {
	log, _ := chainLog(b, 50)
	b.Run("backend=mem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := store.NewMemStore()
			if err := s.PutRunLog(log); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("backend=rel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := survey.NewRelStore()
			if err := s.PutRunLog(log); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("backend=triple", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := store.NewTripleStore()
			if err := s.PutRunLog(log); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("backend=file", func(b *testing.B) {
		dir := b.TempDir()
		s, err := store.OpenFileStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < b.N; i++ {
			cp := *log
			cp.Run.ID = fmt.Sprintf("%s-b%d", log.Run.ID, i)
			if err := s.PutRunLog(&cp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12Collaboratory benchmarks search and recommendation on a
// synthesized community.
func BenchmarkE12Collaboratory(b *testing.B) {
	repo := collab.NewRepository(store.NewMemStore())
	users, err := collab.SynthesizeCommunity(repo, collab.CommunityOptions{Seed: 3, Users: 20, RunsEach: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("op=search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo.Search("visualization imaging", 10)
		}
	})
	b.Run("op=recommend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo.Recommend(users[i%len(users)], 3)
		}
	})
}

// BenchmarkE13ClosureCache quantifies incremental closure maintenance on
// the file backend at depth 128: mode=cold recomputes the pushed-down
// closure every query, mode=warm hits the memoized closure, and
// mode=ingestpatch pays one ingest whose new edges patch a warm downstream
// closure in place (the cost invalidation would otherwise turn into a full
// recompute on the next query), and mode=snapshot checkpoints a cache
// holding 256 closures of a 256-run chain and reopens it warm, reporting
// B/op and the closures.json size as snapshot_B. `make bench-smoke` runs
// mode=snapshot.
func BenchmarkE13ClosureCache(b *testing.B) {
	log, target := chainLog(b, 128)
	head := log.Artifacts[0].ID // the chain's first artifact: upstream of everything
	fs, err := store.OpenFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	cached := closurecache.Wrap(fs)
	if err := cached.PutRunLog(log); err != nil {
		b.Fatal(err)
	}
	b.Run("mode=cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fs.Closure(target, store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=warm", func(b *testing.B) {
		if _, err := cached.Closure(target, store.Up); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cached.Closure(target, store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
	extSeq := 0 // unique IDs across the harness's repeated b.N runs
	b.Run("mode=ingestpatch", func(b *testing.B) {
		// Warm the downstream closure the extensions will attach to.
		if _, err := cached.Closure(head, store.Down); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			extSeq++
			runID := fmt.Sprintf("bext-%06d", extSeq)
			exec := fmt.Sprintf("bext-exec-%06d", extSeq)
			out := fmt.Sprintf("bext-art-%06d", extSeq)
			ext := &provenance.RunLog{}
			ext.Run = provenance.Run{ID: runID, WorkflowID: "ext", Status: provenance.StatusOK}
			ext.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "ext", ModuleType: "Ext", Status: provenance.StatusOK}}
			ext.Artifacts = []*provenance.Artifact{
				{ID: target, RunID: runID, Type: "blob"},
				{ID: out, RunID: runID, Type: "blob"},
			}
			ext.Events = []provenance.Event{
				{Seq: 1, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: target},
				{Seq: 2, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
			}
			if err := cached.PutRunLog(ext); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if m := cached.Metrics(); m.Patched == 0 {
			b.Fatalf("ingests never patched a cached closure: %+v", m)
		}
	})
	b.Run("mode=snapshot", func(b *testing.B) {
		const closures = 256
		dir := b.TempDir()
		open := func() *closurecache.Cache {
			fs, err := store.OpenFileStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			return closurecache.New(fs, closurecache.Options{SnapshotDir: dir})
		}
		c := open()
		for i := 0; i < closures; i++ {
			if err := c.PutRunLog(chainRun("e13", i)); err != nil {
				b.Fatal(err)
			}
		}
		for i := 1; i <= closures; i++ {
			if _, err := c.Closure(fmt.Sprintf("e13-art-%06d", i), store.Up); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
			c = open()
			if m := c.Metrics(); m.Restored != closures {
				b.Fatalf("reopen restored %d closures, want %d", m.Restored, closures)
			}
		}
		b.StopTimer()
		c.Close()
		fi, err := os.Stat(closurecache.SnapshotPath(dir))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(fi.Size()), "snapshot_B")
	})
}

// BenchmarkColdClosure reports what a cold lineage closure costs in
// absolute terms — ns/op, B/op, allocs/op under -benchmem — on the
// serving shape: a depth-128 chain spread over 4 file-backed shards.
// cache=off is the router's pushdown alone; cache=miss adds the closure
// cache on a query that misses, so each iteration also admits the result
// and evicts the one before it. `make bench-smoke` prints both in CI.
func BenchmarkColdClosure(b *testing.B) {
	const chainRuns = 128
	r, err := shardedstore.OpenWith(b.TempDir(), 4, store.FileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < chainRuns; i++ {
		if err := r.PutRunLog(chainRun("e16", i)); err != nil {
			b.Fatal(err)
		}
	}
	// Two seeds at the chain's tail: alternating them through a one-entry
	// cache makes every query a miss. It is also the reverse index's worst
	// case — each eviction empties it, so each admission rebuilds every
	// postings list — where a cache at a realistic capacity appends to
	// lists that already exist.
	seeds := [2]string{fmt.Sprintf("e16-art-%06d", chainRuns), fmt.Sprintf("e16-art-%06d", chainRuns-1)}
	b.Run("cache=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Closure(seeds[i&1], store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache=miss", func(b *testing.B) {
		cached := closurecache.New(r, closurecache.Options{MaxClosures: 1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cached.Closure(seeds[i&1], store.Up); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if m := cached.Metrics(); m.ClosureHits != 0 {
			b.Fatalf("%d of %d queries hit the cache", m.ClosureHits, b.N)
		}
	})
}

// BenchmarkShardedReopen reports what opening a sharded store directory
// costs in absolute terms — ns/op, B/op, allocs/op — on 4 file shards
// holding 2 048 runs of one chain (every artifact is declared on two
// shards, so the directory derivation has claims to settle). fullscan
// opens a directory without checkpoints: every record is decoded, once,
// the shards side by side. checkpointed opens one whose shards
// checkpointed after the last run: snapshots only, no log byte read.
// `make bench-smoke` prints both in CI.
func BenchmarkShardedReopen(b *testing.B) {
	const runs = 2048
	for _, arm := range []string{"fullscan", "checkpointed"} {
		dir := b.TempDir()
		r, err := shardedstore.OpenWith(dir, 4, store.FileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < runs; i++ {
			if err := r.PutRunLog(chainRun("e16", i)); err != nil {
				b.Fatal(err)
			}
		}
		if arm == "checkpointed" {
			if err := r.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(arm, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := shardedstore.OpenWith(dir, 4, store.FileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if st, _ := r.Stats(); st.Runs != runs {
					b.Fatalf("reopened %d runs, want %d", st.Runs, runs)
				}
				r.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkE14Sharding measures the sharded store router at 1/2/4/8
// durable file-backed shards on a wide seed DAG (wideSeed): mode=ingest is
// one batch of 16 runs pushed by 8 concurrent publishers per iteration
// (runs land on their inputs' shards, commits overlap across shards);
// mode=closure is the scatter/gather downstream closure of the seed root.
func BenchmarkE14Sharding(b *testing.B) {
	for _, nShards := range []int{1, 2, 4, 8} {
		r, err := shardedstore.OpenWith(b.TempDir(), nShards, store.FileOptions{Durability: store.DurabilityFsync})
		if err != nil {
			b.Fatal(err)
		}
		seedLogs, lastLayer := wideSeed(4, 16, 3)
		for _, l := range seedLogs {
			if err := r.PutRunLog(l); err != nil {
				b.Fatal(err)
			}
		}
		batch := 0
		b.Run(fmt.Sprintf("shards=%d/mode=ingest", nShards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch++
				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for k := 0; k < 2; k++ {
							l := publishRun(fmt.Sprintf("b%d-%d-%d", batch, w, k), batch,
								lastLayer[(batch+w+k)%len(lastLayer)])
							if err := r.PutRunLog(l); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			}
		})
		b.Run(fmt.Sprintf("shards=%d/mode=closure", nShards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Closure("e14-root-art", store.Down); err != nil {
					b.Fatal(err)
				}
			}
		})
		r.Close()
	}
}

// BenchmarkE15WAL measures the write-ahead group-commit and checkpoint
// subsystem: mode=ingest commits one batch of 16 runs through 16
// concurrent writers per iteration — durability=fsync pays one fsync per
// run, durability=group coalesces the 16 into a few shared batch commits;
// mode=reopen measures restart latency on a 600-run chain store, cold
// (full log scan + cold closure) vs from-checkpoint (snapshot load + warm
// cached closure).
func BenchmarkE15WAL(b *testing.B) {
	for _, d := range []store.Durability{store.DurabilityFsync, store.DurabilityGroup} {
		fs, err := store.OpenFileStoreWith(b.TempDir(), store.FileOptions{Durability: d})
		if err != nil {
			b.Fatal(err)
		}
		batch := 0
		b.Run(fmt.Sprintf("mode=ingest/durability=%s", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch++
				var wg sync.WaitGroup
				for w := 0; w < 16; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						l := publishRun(fmt.Sprintf("b15-%s-%d-%d", d, batch, w), batch,
							fmt.Sprintf("b15-in-%03d", (batch+w)%7))
						if err := fs.PutRunLog(l); err != nil {
							b.Error(err)
						}
					}(w)
				}
				wg.Wait()
			}
			m := fs.WALMetrics()
			if m.Batches > 0 {
				b.ReportMetric(float64(m.Appends)/float64(m.Batches), "runs/fsync")
			}
		})
		fs.Close()
	}

	// Reopen latency: one prebuilt checkpointed chain store.
	const chainLen = 600
	dir := b.TempDir()
	built, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		b.Fatal(err)
	}
	cached := closurecache.New(built, closurecache.Options{SnapshotDir: dir})
	for i := 0; i < chainLen; i++ {
		if err := cached.PutRunLog(chainRun("e15", i)); err != nil {
			b.Fatal(err)
		}
	}
	const head = "e15-art-000000"
	if _, err := cached.Closure(head, store.Down); err != nil {
		b.Fatal(err)
	}
	if err := cached.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	cached.Close()
	b.Run("mode=reopen/state=warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
			if err != nil {
				b.Fatal(err)
			}
			c := closurecache.New(fs, closurecache.Options{SnapshotDir: dir})
			if _, err := c.Closure(head, store.Down); err != nil {
				b.Fatal(err)
			}
			c.Close()
		}
	})
	// Cold control: measured against a copy with the snapshots removed —
	// the log alone is authoritative.
	b.Run("mode=reopen/state=cold", func(b *testing.B) {
		// Tolerant removal: the harness re-invokes this closure with a
		// larger b.N after the files are already gone.
		if err := wal.RemoveCheckpoint(store.CheckpointPath(dir)); err != nil {
			b.Fatal(err)
		}
		if err := wal.RemoveCheckpoint(closurecache.SnapshotPath(dir)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fs.Closure(head, store.Down); err != nil {
				b.Fatal(err)
			}
			fs.Close()
		}
	})
}

// BenchmarkE16ClosurePushdown measures a depth-128 chain lineage over 4
// file shards three ways: the single FileStore's one-lock BFS, the
// sharded router's pre-pushdown per-hop scatter/gather
// (store.CloseOverExpand over Router.Expand), and the closure pushdown
// (local fixpoint per shard + cross-shard frontier exchange). Allocations
// are reported — the pooled per-shard buffers are what keeps them flat.
func BenchmarkE16ClosurePushdown(b *testing.B) {
	const chainRuns = 128
	logs := make([]*provenance.RunLog, chainRuns)
	for i := range logs {
		logs[i] = chainRun("e16", i)
	}
	tail := fmt.Sprintf("e16-art-%06d", chainRuns)

	fs, err := store.OpenFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	r, err := shardedstore.OpenWith(b.TempDir(), 4, store.FileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for _, l := range logs {
		if err := fs.PutRunLog(l); err != nil {
			b.Fatal(err)
		}
		if err := r.PutRunLog(l); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("mode=singlefile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fs.Closure(tail, store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=sharded-perhop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.CloseOverExpand(r.Expand, tail, store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=sharded-pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Closure(tail, store.Up); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE18Replication measures the log-shipping replication path on
// a 4-shard group-commit primary served over the v1 HTTP API with one
// bootstrapped follower: mode=ship-apply ingests a small batch on the
// primary and drains it through the follower's catch-up (HTTP chunk
// stream + watermark-ordered replay); mode=read-follower and
// mode=read-primary compare the same lineage closure served from each
// node's HTTP face.
func BenchmarkE18Replication(b *testing.B) {
	router, err := shardedstore.OpenWith(b.TempDir(), 4, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	seedLogs, lastLayer := wideSeed(4, 16, 3)
	for _, l := range seedLogs {
		if err := router.PutRunLog(l); err != nil {
			b.Fatal(err)
		}
	}
	if err := router.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	src, err := replica.NewSource(router)
	if err != nil {
		b.Fatal(err)
	}
	primary := httptest.NewServer(collab.NewHandlerWith(collab.NewRepository(router), collab.HandlerOptions{
		Source: src,
		Status: func() api.ReplicationStatus { return src.Status(nil, nil) },
	}))
	defer primary.Close()

	f, err := replica.Open(replica.Options{Dir: b.TempDir(), Primary: primary.URL})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.CatchUp(); err != nil {
		b.Fatal(err)
	}
	node, err := replica.NewNode("", api.RoleFollower, f)
	if err != nil {
		b.Fatal(err)
	}
	follower := httptest.NewServer(collab.NewHandlerWith(collab.NewRepository(f.Store()), collab.HandlerOptions{
		Failover: node,
		Status:   f.Status,
	}))
	defer follower.Close()

	batch := 0
	b.Run("mode=ship-apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch++
			for k := 0; k < 4; k++ {
				l := publishRun(fmt.Sprintf("r%d-%d", batch, k), batch, lastLayer[(batch+k)%len(lastLayer)])
				if err := router.PutRunLog(l); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.CatchUp(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []struct {
		mode string
		url  string
	}{
		{"read-follower", follower.URL},
		{"read-primary", primary.URL},
	} {
		c := api.NewClient(n.url, nil)
		b.Run("mode="+n.mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Lineage(lastLayer[i%len(lastLayer)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE19Obs measures the per-operation cost of the observability
// primitives (internal/obs's TestHotPathAllocatesNothing pins that they
// allocate nothing): a labeled counter
// increment, a latency-histogram observation (clock read + bucket add),
// the same observation with the global gate off (what disabled
// instrumentation costs on the hot path), and a full snapshot + p99
// extraction as a /v1/metrics scrape would do it.
func BenchmarkE19Obs(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_ops_total", "", obs.L("op", "put"))
	hist := reg.Histogram("bench_op_seconds", "")
	for i := 0; i < 1000; i++ {
		hist.ObserveValue(uint64(i) * 1000)
	}

	b.Run("counter-inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.ObserveSince(obs.Now())
		}
	})
	b.Run("observe-disabled", func(b *testing.B) {
		prev := obs.SetEnabled(false)
		defer obs.SetEnabled(prev)
		for i := 0; i < b.N; i++ {
			hist.ObserveSince(obs.Now())
		}
	})
	b.Run("snapshot-p99", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if q := hist.Snapshot().Quantile(0.99); q == 0 {
				b.Fatal("zero p99")
			}
		}
	})
}

// BenchmarkE20Standing measures the per-ingest cost of standing queries:
// accepting one run into a store watched by 64 standing
// subscriptions (pattern-indexed incremental maintenance plus event
// drain), against the same ingest into a bare store — the difference is
// what the standing-query subsystem charges the write path.
func BenchmarkE20Standing(b *testing.B) {
	const chains = 8
	runOf := func(c, i int) *provenance.RunLog { return chainRun(fmt.Sprintf("b20-c%d", c), i) }
	seed := func(b *testing.B, st store.Store) {
		b.Helper()
		for i := 0; i < 12; i++ {
			for c := 0; c < chains; c++ {
				if err := st.PutRunLog(runOf(c, i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("maintain-64subs", func(b *testing.B) {
		st := store.NewMemStore()
		defer st.Close()
		mgr := standing.NewManager(st, standing.Options{})
		tap := standing.NewTap(st, mgr)
		seed(b, tap)
		var ids []string
		var cursors []uint64
		for c := 0; c < chains; c++ {
			for _, spec := range []standing.Spec{
				{Kind: standing.KindClosure, Root: fmt.Sprintf("b20-c%d-art-%06d", c, 0), Dir: store.Down},
				{Kind: standing.KindClosure, Root: fmt.Sprintf("b20-c%d-art-%06d", c, 3), Dir: store.Down},
				{Kind: standing.KindClosure, Root: fmt.Sprintf("b20-c%d-art-%06d", c, 6), Dir: store.Up},
				{Kind: standing.KindTriple, Pattern: store.Triple{S: fmt.Sprintf("b20-c%d-exec-%06d", c, 2), P: store.PredGenerated}},
				{Kind: standing.KindTriple, Pattern: store.Triple{P: store.PredUsed, O: fmt.Sprintf("b20-c%d-art-%06d", c, 5)}},
				{Kind: standing.KindTriple, Pattern: store.Triple{S: fmt.Sprintf("b20-c%d-exec-%06d", c, 8)}},
				{Kind: standing.KindConjunctive, Query: "used(E, A), generated(E, B)", Output: []string{"A", "B"}},
				{Kind: standing.KindConjunctive, Query: "generated(E, A), partOfRun(E, R)", Output: []string{"A", "R"}},
			} {
				snap, err := mgr.Subscribe(spec)
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, snap.ID)
				cursors = append(cursors, snap.Seq)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tap.PutRunLog(runOf(i%chains, 12+i/chains)); err != nil {
				b.Fatal(err)
			}
			for s := range ids {
				evs, ok := mgr.EventsSince(ids[s], cursors[s])
				if !ok {
					b.Fatal("subscription vanished")
				}
				for _, ev := range evs {
					cursors[s] = ev.Seq
				}
			}
		}
	})
	b.Run("bare-ingest", func(b *testing.B) {
		st := store.NewMemStore()
		defer st.Close()
		seed(b, st)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.PutRunLog(runOf(i%chains, 12+i/chains)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE21Failover measures the two per-operation costs behind
// failover: mode=ship-apply-faulty is the BenchmarkE18Replication
// ship-apply loop run through the fault-injecting transport (errors,
// latency, truncated bodies), i.e. what replication retention costs on a
// bad link; mode=epoch-observe is the fencing-epoch exchange every v1
// request pays (atomic compare + possible adoption).
func BenchmarkE21Failover(b *testing.B) {
	st, err := store.OpenFileStoreWith(b.TempDir(), store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seedLogs, lastLayer := wideSeed(3, 12, 3)
	for _, l := range seedLogs {
		if err := st.PutRunLog(l); err != nil {
			b.Fatal(err)
		}
	}
	src, err := replica.NewSource(st)
	if err != nil {
		b.Fatal(err)
	}
	node, err := replica.NewNode(b.TempDir(), api.RolePrimary, nil)
	if err != nil {
		b.Fatal(err)
	}
	primary := httptest.NewServer(collab.NewHandlerWith(collab.NewRepository(st), collab.HandlerOptions{
		Source:   src,
		Failover: node,
		Status:   func() api.ReplicationStatus { return src.Status(nil, nil) },
	}))
	defer primary.Close()

	ft := faultinject.New(nil, faultinject.Options{
		Seed: 21, ErrorRate: 0.05, LatencyRate: 0.2, Latency: 200 * time.Microsecond, TruncateRate: 0.05,
	})
	var f *replica.Follower
	for attempt := 0; ; attempt++ {
		f, err = replica.Open(replica.Options{
			Dir: b.TempDir(), Primary: primary.URL, Client: ft.Client(),
			RequestTimeout: 2 * time.Second, MaxBatchBytes: 4096,
		})
		if err == nil {
			break
		}
		if attempt > 100 {
			b.Fatal(err)
		}
	}
	defer f.Close()

	batch := 0
	b.Run("mode=ship-apply-faulty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch++
			l := publishRun(fmt.Sprintf("f%d", batch), batch, lastLayer[batch%len(lastLayer)])
			if err := st.PutRunLog(l); err != nil {
				b.Fatal(err)
			}
			for {
				if err := f.CatchUp(); err == nil {
					if _, behind := f.Lag(); behind == 0 {
						break
					}
				}
			}
		}
	})
	b.Run("mode=epoch-observe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			node.Observe(node.Epoch())
		}
	})
}

// TestExperimentSuiteSmoke pins the suite to the paper reproductions E1–E12
// and runs the fast ones end-to-end so `go test` exercises the harness
// itself (timing-heavy ones are covered by the benchmarks above and
// cmd/provbench). E4, E6 and E11 compare the §2.2 storage and query
// models, so their tables must keep one row per backend and per engine.
func TestExperimentSuiteSmoke(t *testing.T) {
	var ids []string
	for _, e := range experiments.Suite {
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, ","), "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12"; got != want {
		t.Fatalf("suite = %s, want %s", got, want)
	}
	if _, err := experiments.ByID("E13"); err == nil {
		t.Fatal("ByID(E13) succeeded; the system experiments are retired")
	}
	tables := map[string][]string{} // the rows below each table's header
	for _, id := range []string{"E1", "E2", "E4", "E5", "E6", "e7", "E11"} {
		r, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Title == "FAILED" {
			t.Fatalf("%s failed: %s", id, r.Table)
		}
		if len(r.Table) == 0 {
			t.Fatalf("%s produced no table", id)
		}
		tables[r.ID] = strings.Split(strings.TrimSpace(r.Table), "\n")[1:]
	}
	column := func(id string, col int) string {
		var out []string
		for _, row := range tables[id] {
			out = append(out, strings.Fields(row)[col])
		}
		return strings.Join(out, ",")
	}
	backends := "mem,rel,triple,file"
	if got, want := column("E4", 2), strings.Repeat(backends+",", 2)+backends; got != want {
		t.Errorf("E4 backends = %s, want %s", got, want)
	}
	if got := column("E11", 0); got != backends {
		t.Errorf("E11 backends = %s, want %s", got, backends)
	}
	engines := []string{"native BFS", "PQL LINEAGE OF", "Datalog ancestor (fixpoint)", "Datalog ancestor (pushed-down)", "SPARQL-like single hop"}
	if len(tables["E6"]) != len(engines) {
		t.Fatalf("E6 rows, want one per engine and no WARNING line:\n%s", strings.Join(tables["E6"], "\n"))
	}
	for i, row := range tables["E6"] {
		if !strings.HasPrefix(row, engines[i]) {
			t.Errorf("E6 row %d = %q, want engine %q", i, row, engines[i])
		}
	}
}
