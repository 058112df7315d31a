package closurecache

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// dagBuilder synthesizes run logs that form one growing, connected DAG:
// each new run's executions consume artifacts produced by earlier runs
// (re-declared in the new log, as content-addressed sharing does) and
// generate fresh ones. This is the workload shape incremental maintenance
// exists for — random per-run graphs would never touch a cached closure.
type dagBuilder struct {
	arts []string
	next int
}

func (b *dagBuilder) freshArt() string {
	b.next++
	return fmt.Sprintf("art-%05d", b.next)
}

func (b *dagBuilder) freshExec() string {
	b.next++
	return fmt.Sprintf("exec-%05d", b.next)
}

// buildLog synthesizes one run. With hazardEvery > 0, roughly one in that
// many runs re-declares an existing artifact as generated by a new
// execution — the non-monotone generator-replacement case.
func (b *dagBuilder) buildLog(rng *rand.Rand, runIdx int, hazardEvery int) *provenance.RunLog {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: fmt.Sprintf("run-%04d", runIdx), WorkflowID: "wf", Status: provenance.StatusOK}
	declared := map[string]bool{}
	var seq uint64
	addEvent := func(kind provenance.EventKind, exec, art string) {
		seq++
		l.Events = append(l.Events, provenance.Event{
			Seq: seq, RunID: l.Run.ID, Kind: kind, ExecutionID: exec, ArtifactID: art,
		})
	}
	declare := func(id string) {
		if !declared[id] {
			declared[id] = true
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: id, RunID: l.Run.ID, Type: "blob"})
		}
	}
	nExec := 1 + rng.Intn(3)
	var madeThisRun []string
	genInLog := map[string]bool{}
	for i := 0; i < nExec; i++ {
		exec := b.freshExec()
		l.Executions = append(l.Executions, &provenance.Execution{
			ID: exec, RunID: l.Run.ID, ModuleID: fmt.Sprintf("m%d", i), ModuleType: "T", Status: provenance.StatusOK,
		})
		// Consume 0-2 artifacts from the shared pool and 0-1 from this run.
		for _, pool := range [][]string{b.arts, madeThisRun} {
			if len(pool) == 0 {
				continue
			}
			for n := rng.Intn(3); n > 0; n-- {
				a := pool[rng.Intn(len(pool))]
				declare(a)
				addEvent(provenance.EventArtifactUsed, exec, a)
			}
		}
		// Occasionally re-generate an existing artifact under a new
		// execution (generator replacement on mem/file; ignored first-wins
		// on rel/triple) — the hazard the cache must evict for.
		if hazardEvery > 0 && len(b.arts) > 0 && rng.Intn(hazardEvery) == 0 {
			a := b.arts[rng.Intn(len(b.arts))]
			if !genInLog[a] {
				genInLog[a] = true
				declare(a)
				addEvent(provenance.EventArtifactGen, exec, a)
			}
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			a := b.freshArt()
			genInLog[a] = true
			declare(a)
			addEvent(provenance.EventArtifactGen, exec, a)
			madeThisRun = append(madeThisRun, a)
		}
	}
	b.arts = append(b.arts, madeThisRun...)
	return l
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// chainLog builds one long dependency chain as a single run log:
// a0 -> e0 -> a1 -> e1 -> ... of the given depth.
func chainLog(depth int) (*provenance.RunLog, string, string) {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: "chain", WorkflowID: "wf", Status: provenance.StatusOK}
	var seq uint64
	art := func(i int) string { return fmt.Sprintf("c-art-%04d", i) }
	l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art(0), RunID: "chain", Type: "blob"})
	for i := 0; i < depth; i++ {
		exec := fmt.Sprintf("c-exec-%04d", i)
		l.Executions = append(l.Executions, &provenance.Execution{ID: exec, RunID: "chain", ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK})
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art(i + 1), RunID: "chain", Type: "blob"})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: "chain", Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: art(i)})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: "chain", Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: art(i + 1)})
	}
	return l, art(0), art(depth)
}

func TestWarmClosureMatchesCold(t *testing.T) {
	l, head, tail := chainLog(64)
	c := Wrap(store.NewMemStore())
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	cold, err := c.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm closure diverged:\ncold %v\nwarm %v", cold, warm)
	}
	m := c.Metrics()
	if m.ClosureHits != 1 || m.ClosureMisses != 1 || m.ClosureEntries != 1 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss / 1 entry", m)
	}
	if _, err := c.Closure("ghost", store.Up); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("ghost closure err = %v, want ErrNotFound", err)
	}
	if _, err := c.Closure(head, store.Down); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalPatchExtendsWithoutEviction ingests a run that attaches to
// a warm closure's frontier and asserts the entry was patched in place —
// not evicted — and matches a cold recomputation.
func TestIncrementalPatchExtendsWithoutEviction(t *testing.T) {
	l, head, tail := chainLog(32)
	c := Wrap(store.NewMemStore())
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	before, err := c.Closure(head, store.Down) // warm the downstream closure
	if err != nil {
		t.Fatal(err)
	}
	// A new run consumes the chain's tail artifact and derives two more.
	ext := &provenance.RunLog{}
	ext.Run = provenance.Run{ID: "ext", WorkflowID: "wf", Status: provenance.StatusOK}
	ext.Executions = []*provenance.Execution{{ID: "x-exec", RunID: "ext", ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	ext.Artifacts = []*provenance.Artifact{
		{ID: tail, RunID: "ext", Type: "blob"},
		{ID: "x-art-1", RunID: "ext", Type: "blob"},
		{ID: "x-art-2", RunID: "ext", Type: "blob"},
	}
	ext.Events = []provenance.Event{
		{Seq: 1, RunID: "ext", Kind: provenance.EventArtifactUsed, ExecutionID: "x-exec", ArtifactID: tail},
		{Seq: 2, RunID: "ext", Kind: provenance.EventArtifactGen, ExecutionID: "x-exec", ArtifactID: "x-art-1"},
		{Seq: 3, RunID: "ext", Kind: provenance.EventArtifactGen, ExecutionID: "x-exec", ArtifactID: "x-art-2"},
	}
	if err := c.PutRunLog(ext); err != nil {
		t.Fatal(err)
	}
	after, err := c.Closure(head, store.Down)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+3 {
		t.Fatalf("patched closure has %d nodes, want %d", len(after), len(before)+3)
	}
	want, err := store.NaiveClosure(c.Underlying(), head, store.Down)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedCopy(after), sortedCopy(want)) {
		t.Fatalf("patched closure diverged from recomputation:\n got %v\nwant %v", sortedCopy(after), sortedCopy(want))
	}
	m := c.Metrics()
	if m.Patched == 0 {
		t.Fatalf("expected an in-place patch, metrics = %+v", m)
	}
	if m.Evicted != 0 {
		t.Fatalf("expected no evictions, metrics = %+v", m)
	}
	if m.ClosureHits != 1 {
		t.Fatalf("post-patch read should hit, metrics = %+v", m)
	}
}

// TestGeneratorReplacementEvicts covers the non-monotone case: a log that
// re-declares a cached artifact's generator must evict the stale upstream
// closure rather than patch it.
func TestGeneratorReplacementEvicts(t *testing.T) {
	l, _, tail := chainLog(8)
	c := Wrap(store.NewMemStore())
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(tail, store.Up); err != nil { // warm: contains every chain artifact
		t.Fatal(err)
	}
	mid := "c-art-0004"
	rep := &provenance.RunLog{}
	rep.Run = provenance.Run{ID: "rep", WorkflowID: "wf", Status: provenance.StatusOK}
	rep.Executions = []*provenance.Execution{{ID: "rep-exec", RunID: "rep", ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	rep.Artifacts = []*provenance.Artifact{{ID: mid, RunID: "rep", Type: "blob"}}
	rep.Events = []provenance.Event{
		{Seq: 1, RunID: "rep", Kind: provenance.EventArtifactGen, ExecutionID: "rep-exec", ArtifactID: mid},
	}
	if err := c.PutRunLog(rep); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Evicted == 0 {
		t.Fatalf("generator replacement should evict, metrics = %+v", m)
	}
	got, err := c.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.NaiveClosure(c.Underlying(), tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
		t.Fatalf("post-hazard closure diverged:\n got %v\nwant %v", sortedCopy(got), sortedCopy(want))
	}
}

// TestInterleavedIngestQueryAllBackends is the conformance property of the
// incremental maintenance: under randomized interleavings of connected-DAG
// ingests and closure queries — including generator-replacement hazards —
// the cached closure always set-equals NaiveClosure on the post-ingest
// graph, on all four backends, and Expand served through the cache always
// equals the backend's own answer.
func TestInterleavedIngestQueryAllBackends(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 51} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fs, err := store.OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()
			backends := []store.Store{store.NewMemStore(), store.NewTripleStore(), fs}
			for _, backend := range backends {
				rng := rand.New(rand.NewSource(seed))
				b := &dagBuilder{}
				c := Wrap(backend)
				var entities []string
				for step := 0; step < 12; step++ {
					l := b.buildLog(rng, step, 6)
					if err := c.PutRunLog(l); err != nil {
						t.Fatalf("%s: ingest %d: %v", backend.Name(), step, err)
					}
					for _, a := range l.Artifacts {
						entities = append(entities, a.ID)
					}
					for _, e := range l.Executions {
						entities = append(entities, e.ID)
					}
					// Query a random sample; repeats across steps keep
					// entries warm so later ingests exercise the patch path.
					for q := 0; q < 8; q++ {
						root := entities[rng.Intn(len(entities))]
						dir := store.Direction(rng.Intn(2))
						got, gerr := c.Closure(root, dir)
						want, werr := store.NaiveClosure(backend, root, dir)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("%s step %d: Closure(%s,%v) err=%v, naive err=%v", backend.Name(), step, root, dir, gerr, werr)
						}
						if gerr == nil && !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
							t.Fatalf("%s step %d: Closure(%s,%v) =\n %v\nwant %v", backend.Name(), step, root, dir, sortedCopy(got), sortedCopy(want))
						}
						probe := []string{root, entities[rng.Intn(len(entities))], "ghost-entity"}
						gotAdj, err := c.Expand(probe, dir)
						if err != nil {
							t.Fatalf("%s step %d: Expand: %v", backend.Name(), step, err)
						}
						wantAdj, err := backend.Expand(probe, dir)
						if err != nil {
							t.Fatalf("%s step %d: backend Expand: %v", backend.Name(), step, err)
						}
						if !reflect.DeepEqual(gotAdj, wantAdj) {
							t.Fatalf("%s step %d: Expand(%v,%v) =\n %v\nwant %v", backend.Name(), step, probe, dir, gotAdj, wantAdj)
						}
					}
					if _, err := c.Closure("ghost-entity", dirOf(step)); !errors.Is(err, store.ErrNotFound) {
						t.Fatalf("%s step %d: ghost err = %v", backend.Name(), step, err)
					}
				}
				m := c.Metrics()
				if m.ClosureHits == 0 || m.Patched == 0 {
					t.Fatalf("%s: property run never exercised warm/patch paths: %+v", backend.Name(), m)
				}
			}
		})
	}
}

// The cache over a sharded router: warm entries must stay set-equal to
// the router's pushdown Closure (which replays the exact single-store BFS
// order) across interleaved ingests, including generator-replacement
// hazards, at 1, 2 and 4 shards. Ingest-time delta patching drives the
// router's Expand, so this also pins the cache against the pushdown's
// aliasing Expand results.
func TestCacheOverShardedPushdown(t *testing.T) {
	for _, nShards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + nShards)))
			b := &dagBuilder{}
			r := shardedstore.NewMem(nShards)
			c := Wrap(r)
			var entities []string
			for step := 0; step < 12; step++ {
				l := b.buildLog(rng, step, 6)
				if err := c.PutRunLog(l); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				for _, a := range l.Artifacts {
					entities = append(entities, a.ID)
				}
				for _, e := range l.Executions {
					entities = append(entities, e.ID)
				}
				for q := 0; q < 8; q++ {
					root := entities[rng.Intn(len(entities))]
					dir := store.Direction(rng.Intn(2))
					got, gerr := c.Closure(root, dir)
					want, werr := r.Closure(root, dir)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: Closure(%s,%v) err=%v, pushdown err=%v", step, root, dir, gerr, werr)
					}
					if gerr == nil && !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
						t.Fatalf("step %d: cached Closure(%s,%v) =\n %v\nwant pushdown %v", step, root, dir, sortedCopy(got), sortedCopy(want))
					}
				}
			}
			if m := c.Metrics(); m.ClosureHits == 0 || m.Patched == 0 {
				t.Fatalf("sharded cache run never exercised warm/patch paths: %+v", m)
			}
		})
	}
}

func dirOf(i int) store.Direction {
	if i%2 == 0 {
		return store.Up
	}
	return store.Down
}

// TestConcurrentReadersWithWriter runs closure/expand readers against an
// ingesting writer; the race detector checks the locking discipline, and a
// final sweep checks the cache settled on the true closures.
func TestConcurrentReadersWithWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := &dagBuilder{}
	mem := store.NewMemStore()
	c := Wrap(mem)
	var logs []*provenance.RunLog
	for i := 0; i < 20; i++ {
		logs = append(logs, b.buildLog(rng, i, 8))
	}
	if err := c.PutRunLog(logs[0]); err != nil {
		t.Fatal(err)
	}
	roots := append([]string(nil), b.arts...)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				root := roots[rng.Intn(len(roots))]
				dir := store.Direction(rng.Intn(2))
				if _, err := c.Closure(root, dir); err != nil && !errors.Is(err, store.ErrNotFound) {
					t.Errorf("reader: %v", err)
					return
				}
				if _, err := c.Expand([]string{root}, dir); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(r)
	}
	for _, l := range logs[1:] {
		if err := c.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for _, root := range roots {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			got, gerr := c.Closure(root, dir)
			want, werr := store.NaiveClosure(mem, root, dir)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("settled Closure(%s,%v) = %v,%v; want %v,%v", root, dir, got, gerr, want, werr)
			}
		}
	}
}

// TestCycleIngestIncludesRoot covers the one case where a closure contains
// its own seed: an ingest whose execution both uses and generates the same
// artifact creates a cycle, and the backends' BFS (which never pre-marks
// the seed) then returns the root inside its own closure. The patched
// cached entry must match that.
func TestCycleIngestIncludesRoot(t *testing.T) {
	mem := store.NewMemStore()
	c := Wrap(mem)
	base := &provenance.RunLog{}
	base.Run = provenance.Run{ID: "base", WorkflowID: "wf", Status: provenance.StatusOK}
	base.Executions = []*provenance.Execution{{ID: "b-exec", RunID: "base", ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	base.Artifacts = []*provenance.Artifact{{ID: "a", RunID: "base", Type: "blob"}}
	base.Events = []provenance.Event{
		{Seq: 1, RunID: "base", Kind: provenance.EventArtifactUsed, ExecutionID: "b-exec", ArtifactID: "a"},
	}
	if err := c.PutRunLog(base); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Closure("a", store.Up); err != nil || len(got) != 0 {
		t.Fatalf("raw artifact upstream closure = %v, %v", got, err)
	}
	// One execution both uses and generates "a": edge cycle a -> f -> a.
	cyc := &provenance.RunLog{}
	cyc.Run = provenance.Run{ID: "cyc", WorkflowID: "wf", Status: provenance.StatusOK}
	cyc.Executions = []*provenance.Execution{{ID: "f", RunID: "cyc", ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	cyc.Artifacts = []*provenance.Artifact{{ID: "a", RunID: "cyc", Type: "blob"}}
	cyc.Events = []provenance.Event{
		{Seq: 1, RunID: "cyc", Kind: provenance.EventArtifactUsed, ExecutionID: "f", ArtifactID: "a"},
		{Seq: 2, RunID: "cyc", Kind: provenance.EventArtifactGen, ExecutionID: "f", ArtifactID: "a"},
	}
	if err := c.PutRunLog(cyc); err != nil {
		t.Fatal(err)
	}
	got, err := c.Closure("a", store.Up)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.NaiveClosure(mem, "a", store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
		t.Fatalf("cyclic patched closure = %v, want %v", sortedCopy(got), sortedCopy(want))
	}
}

// TestCapacityEviction exercises the capacity eviction path (every key read
// twice: a full cache admits on the second miss).
func TestCapacityEviction(t *testing.T) {
	l, _, _ := chainLog(16)
	c := New(store.NewMemStore(), Options{MaxClosures: 4})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 2*16+1; i++ {
		if _, err := c.Closure(fmt.Sprintf("c-art-%04d", i/2), store.Up); err != nil {
			t.Fatal(err)
		}
	}
	if m := c.Metrics(); m.ClosureEntries > 4 || m.Evicted == 0 {
		t.Fatalf("capacity not enforced: %+v", m)
	}
}
