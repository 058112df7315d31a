package shardedstore

// Conformance properties of the pushdown Closure (local fixpoint per shard
// + cross-shard frontier exchange): on chain-, star- and diamond-shaped
// DAGs — including cross-shard generator re-declarations, the
// last-write-wins case whose stale edges a shard's local walk may follow —
// the pushdown must answer exactly like the per-edge reference BFS over
// Router.Expand (store.NaiveClosure, the per-hop path the pushdown
// replaced), and its round count must stay
// within the cross-shard crossing bound. Run under -race in CI: the query
// phase below exercises concurrent pushdowns against live ingest.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/provenance"
	"repro/internal/store"
)

// shapedRun assembles one run log from explicit use/gen edge lists,
// declaring every referenced entity.
func shapedRun(runID string, execID string, uses, gens []string) *provenance.RunLog {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: "shape", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: execID, RunID: runID, ModuleID: "m", ModuleType: "Shape", Status: provenance.StatusOK}}
	declared := map[string]bool{}
	var seq uint64
	for _, a := range uses {
		if !declared[a] {
			declared[a] = true
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: a, RunID: runID, Type: "blob"})
		}
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: execID, ArtifactID: a})
	}
	for _, a := range gens {
		if !declared[a] {
			declared[a] = true
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: a, RunID: runID, Type: "blob"})
		}
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: execID, ArtifactID: a})
	}
	return l
}

// chainShape: run i consumes artifact i and generates artifact i+1 — the
// deep-lineage worst case for a per-hop traversal. Occasional extra
// runs re-declare the generator of an earlier chain artifact, which lands
// on a (usually) different shard than the original declaration.
func chainShape(rng *rand.Rand, tag string, n int) []*provenance.RunLog {
	var logs []*provenance.RunLog
	art := func(i int) string { return fmt.Sprintf("%s-art-%03d", tag, i) }
	logs = append(logs, shapedRun(tag+"-src", tag+"-src-x", nil, []string{art(0)}))
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-run-%03d", tag, i)
		logs = append(logs, shapedRun(id, id+"-x", []string{art(i)}, []string{art(i + 1)}))
	}
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			id := fmt.Sprintf("%s-redecl-%03d", tag, i)
			logs = append(logs, shapedRun(id, id+"-x", nil, []string{art(rng.Intn(n))}))
		}
	}
	return logs
}

// starShape: one hub artifact consumed by n spoke runs, each generating a
// few leaves — the wide-fan-out case. Some spokes' leaves get their
// generators re-declared by later runs on other shards.
func starShape(rng *rand.Rand, tag string, n int) []*provenance.RunLog {
	hub := tag + "-hub"
	logs := []*provenance.RunLog{shapedRun(tag+"-src", tag+"-src-x", nil, []string{hub})}
	var leaves []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-spoke-%03d", tag, i)
		var gens []string
		for f := 0; f <= rng.Intn(3); f++ {
			leaf := fmt.Sprintf("%s-leaf-%03d-%d", tag, i, f)
			gens = append(gens, leaf)
			leaves = append(leaves, leaf)
		}
		logs = append(logs, shapedRun(id, id+"-x", []string{hub}, gens))
	}
	for i := 0; i < n/4; i++ {
		id := fmt.Sprintf("%s-redecl-%03d", tag, i)
		logs = append(logs, shapedRun(id, id+"-x", nil, []string{leaves[rng.Intn(len(leaves))]}))
	}
	return logs
}

// diamondShape: a root fans out to n branch chains that re-converge into
// one sink run — shared upstream and downstream closures with multiple
// shortest paths.
func diamondShape(rng *rand.Rand, tag string, n int) []*provenance.RunLog {
	root := tag + "-root"
	logs := []*provenance.RunLog{shapedRun(tag+"-src", tag+"-src-x", nil, []string{root})}
	var mids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-branch-%03d", tag, i)
		mid := fmt.Sprintf("%s-mid-%03d", tag, i)
		logs = append(logs, shapedRun(id, id+"-x", []string{root}, []string{mid}))
		if rng.Intn(2) == 0 { // deepen some branches by one extra hop
			id2 := fmt.Sprintf("%s-branch2-%03d", tag, i)
			mid2 := fmt.Sprintf("%s-mid2-%03d", tag, i)
			logs = append(logs, shapedRun(id2, id2+"-x", []string{mid}, []string{mid2}))
			mid = mid2
		}
		mids = append(mids, mid)
	}
	logs = append(logs, shapedRun(tag+"-sink", tag+"-sink-x", mids, []string{tag + "-out"}))
	if n > 0 {
		id := tag + "-redecl"
		logs = append(logs, shapedRun(id, id+"-x", nil, []string{mids[rng.Intn(len(mids))]}))
	}
	return logs
}

// assertPushdownConformance checks, for every entity and both directions,
// that the pushdown Closure reproduces the per-edge reference BFS over
// Router.Expand exactly, order included. (Round-count guarantees are pinned
// separately against independently computed run placement — see
// TestPushdownRoundsMatchChainCrossings — because the trace's own crossing
// counter cannot discriminate a degraded round structure.)
func assertPushdownConformance(t *testing.T, r *Router, logs []*provenance.RunLog, label string) bool {
	t.Helper()
	for _, id := range entitiesOf(logs) {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			want, werr := store.NaiveClosure(r, id, dir)
			got, _, gerr := r.TracedClosure(id, dir)
			if (werr == nil) != (gerr == nil) {
				t.Logf("%s %v: Closure(%s) errs: naive %v, pushdown %v", label, dir, id, werr, gerr)
				return false
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("%s %v: pushdown Closure(%s) = %v, want naive %v", label, dir, id, got, want)
				return false
			}
		}
	}
	return true
}

// The pushdown's round structure, pinned against ground truth that the
// traversal cannot influence: on a pure chain (no re-declarations) forced
// to alternate across the shards, the upstream walk from the tail hands
// off between shards exactly where consecutive runs live on different
// shards, so rounds must equal that membership-derived crossing count + 1.
// A pushdown that degrades toward one hop per round inflates its rounds
// well past this bound and fails here (the trace's own Crossings counter
// would keep pace, which is why it is not the reference).
func TestPushdownRoundsMatchChainCrossings(t *testing.T) {
	const n = 40
	for _, nShards := range []int{2, 4} {
		logs := chainShape(rand.New(rand.NewSource(1)), fmt.Sprintf("cx%d", nShards), n)[:n+1] // src + n runs, no redecls
		r := NewMem(nShards)
		putAll(t, r, logs, true)
		crossings := chainSplits(membership(t, r), logs)
		tail := fmt.Sprintf("cx%d-art-%03d", nShards, n)
		_, tr, err := r.TracedClosure(tail, store.Up)
		if err != nil {
			t.Fatal(err)
		}
		if crossings != n || tr.Rounds != crossings+1 || tr.Crossings != crossings {
			t.Fatalf("shards=%d: pushdown executed %d rounds / %d crossings; run placement implies exactly %d crossings (+1 round)",
				nShards, tr.Rounds, tr.Crossings, crossings)
		}
	}
}

// shardKinds opens a router over each shard kind provd builds: in-memory
// stores (NewMem, provd -shards N without -store) and file stores
// (OpenWith, every provd -store node). A file router lives in its own
// temporary directory and is closed when the test ends.
var shardKinds = []struct {
	name string
	open func(t testing.TB, n int) *Router
}{
	{"mem", func(_ testing.TB, n int) *Router { return NewMem(n) }},
	{"file", func(t testing.TB, n int) *Router {
		r, err := OpenWith(t.TempDir(), n, store.FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}},
}

// Property: on chain, star and diamond DAGs with cross-shard generator
// re-declarations, the pushdown Closure ≡ NaiveClosure over Router.Expand
// at 1, 2 and 4 shards of either kind — with runs where placement puts
// them (these small shapes mostly on one shard) and spread round-robin,
// which puts chains, generator re-declarations and fan-ins across shards.
func TestQuickPushdownMatchesNaiveClosure(t *testing.T) {
	shapes := []struct {
		name  string
		build func(rng *rand.Rand, tag string, n int) []*provenance.RunLog
	}{
		{"chain", chainShape},
		{"star", starShape},
		{"diamond", diamondShape},
	}
	for _, kind := range shardKinds {
		t.Run(kind.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				for _, shape := range shapes {
					n := 6 + rng.Intn(10)
					logs := shape.build(rng, fmt.Sprintf("%s-%d", shape.name, seed), n)
					for _, nShards := range []int{1, 2, 4} {
						for _, spread := range []bool{false, true} {
							r := kind.open(t, nShards)
							putAll(t, r, logs, spread)
							if !assertPushdownConformance(t, r, logs, fmt.Sprintf("%s shards=%d spread=%v", shape.name, nShards, spread)) {
								return false
							}
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Pushdown closures racing live ingest must never fail on entities that
// were fully ingested before the queries started, and must conform exactly
// once ingest quiesces — on both shard kinds, with the racing runs where
// placement puts them and spread across the shards. The concurrent phase
// is what -race bites on: many pushdown drivers reading the router indexes
// and each shard's adjacency while writers append and re-declare
// generators across shards.
func TestPushdownConcurrentQueriesDuringIngest(t *testing.T) {
	for _, kind := range shardKinds {
		for _, spread := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spread=%v", kind.name, spread), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				base := chainShape(rng, "base", 24)
				extra := starShape(rng, "extra", 16)
				r := kind.open(t, 4)
				putAll(t, r, base, spread)
				baseEntities := entitiesOf(base)

				var wg sync.WaitGroup
				stop := make(chan struct{})
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							// Base entities were fully ingested before the
							// queries started, so ANY error — including a
							// spurious ErrNotFound from a racing index read —
							// is a failure.
							id := baseEntities[(g*31+i)%len(baseEntities)]
							dir := store.Direction(i % 2)
							if _, _, err := r.TracedClosure(id, dir); err != nil {
								t.Errorf("closure(%s, %v): %v", id, dir, err)
								return
							}
						}
					}(g)
				}
				for i, l := range extra {
					var err error
					if spread {
						err = putOn(r, l, i%r.NumShards())
					} else {
						err = r.PutRunLog(l)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				close(stop)
				wg.Wait()

				all := append(append([]*provenance.RunLog(nil), base...), extra...)
				if !assertPushdownConformance(t, r, all, "post-ingest") {
					t.Fatal("pushdown diverged from reference after concurrent ingest")
				}
			})
		}
	}
}

// A closure one shard answers alone allocates its answer and nothing else
// once the router's pooled buffers have grown: the same count on a 32-run
// and on a 128-run chain over 4 shards of either kind, where per-closure
// maps, an arena or per-entity neighbour lists would grow with the chain.
// The answer is a single FileStore's.
func TestOneShardClosureAllocations(t *testing.T) {
	for _, kind := range shardKinds {
		t.Run(kind.name, func(t *testing.T) {
			allocs := map[int]uint64{}
			for _, runs := range []int{32, 128} {
				tag := fmt.Sprintf("alloc%d", runs)
				logs := chainShape(rand.New(rand.NewSource(1)), tag, runs)[:runs+1] // src + runs, no redecls
				r := kind.open(t, 4)
				single, err := store.OpenFileStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { single.Close() })
				for _, l := range logs {
					// All on one shard: placement alone would split the longer
					// chain at its balance guard.
					if err := putOn(r, l, 2); err != nil {
						t.Fatal(err)
					}
					if err := single.PutRunLog(l); err != nil {
						t.Fatal(err)
					}
				}
				tail := fmt.Sprintf("%s-art-%03d", tag, runs)
				want, err := single.Closure(tail, store.Up)
				if err != nil || len(want) != 2*runs+1 {
					t.Fatalf("single FileStore: %d entities, %v; want %d", len(want), err, 2*runs+1)
				}
				got, tr, err := r.TracedClosure(tail, store.Up)
				if err != nil || !slices.Equal(got, want) || tr.Rounds != 1 {
					t.Fatalf("%d runs: router closure = %v in %d rounds, %v; want %v in 1", runs, got, tr.Rounds, err, want)
				}
				allocs[runs] = fewestAllocs(func() {
					if _, err := r.Closure(tail, store.Up); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[32] != allocs[128] || allocs[128] > 2 {
				t.Fatalf("one-shard closure allocations: %d on a 32-run chain, %d on a 128-run chain; want the same, at most 2", allocs[32], allocs[128])
			}
		})
	}
}

func fewestAllocs(op func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	fewest := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&m0)
		op()
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
	}
	return fewest
}
