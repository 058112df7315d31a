package shardedstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/provenance"
	"repro/internal/store"
)

// synthLogs generates a randomized sequence of valid run logs that share
// artifacts across runs (so entities land on multiple shards), including
// occasional generator re-declarations (the last-write-wins case) and
// consumers of artifacts produced many runs earlier.
func synthLogs(seed int64, nRuns int) []*provenance.RunLog {
	rng := rand.New(rand.NewSource(seed))
	var pool []string // artifacts produced by earlier runs
	var logs []*provenance.RunLog
	nextArt := 0
	for run := 0; run < nRuns; run++ {
		runID := fmt.Sprintf("run-%d-%03d", seed, run)
		l := &provenance.RunLog{}
		l.Run = provenance.Run{ID: runID, WorkflowID: "synth", Status: provenance.StatusOK}
		declared := map[string]bool{}
		genned := map[string]bool{}
		var seq uint64
		nExecs := 1 + rng.Intn(3)
		for e := 0; e < nExecs; e++ {
			execID := fmt.Sprintf("exec-%s-%d", runID, e)
			l.Executions = append(l.Executions, &provenance.Execution{
				ID: execID, RunID: runID, ModuleID: fmt.Sprintf("m%d", e),
				ModuleType: "Synth", Status: provenance.StatusOK,
			})
			// Use up to two artifacts from earlier runs.
			for u := 0; u < rng.Intn(3) && len(pool) > 0; u++ {
				art := pool[rng.Intn(len(pool))]
				if !declared[art] {
					declared[art] = true
					l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art, RunID: runID, Type: "blob"})
				}
				seq++
				l.Events = append(l.Events, provenance.Event{
					Seq: seq, RunID: runID, Kind: provenance.EventArtifactUsed,
					ExecutionID: execID, ArtifactID: art,
				})
			}
			// Generate one or two artifacts; occasionally re-declare the
			// generator of an existing artifact instead of a fresh one.
			for g := 0; g < 1+rng.Intn(2); g++ {
				var art string
				if len(pool) > 0 && rng.Intn(6) == 0 {
					art = pool[rng.Intn(len(pool))]
					if genned[art] {
						continue // one generator per artifact within a log
					}
				} else {
					art = fmt.Sprintf("art-%d-%04d", seed, nextArt)
					nextArt++
					pool = append(pool, art)
				}
				if !declared[art] {
					declared[art] = true
					l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art, RunID: runID, Type: "blob"})
				}
				genned[art] = true
				seq++
				l.Events = append(l.Events, provenance.Event{
					Seq: seq, RunID: runID, Kind: provenance.EventArtifactGen,
					ExecutionID: execID, ArtifactID: art,
				})
			}
		}
		logs = append(logs, l)
	}
	return logs
}

// entitiesOf collects every artifact and execution ID across the logs.
func entitiesOf(logs []*provenance.RunLog) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range logs {
		for _, a := range l.Artifacts {
			if !seen[a.ID] {
				seen[a.ID] = true
				out = append(out, a.ID)
			}
		}
		for _, e := range l.Executions {
			if !seen[e.ID] {
				seen[e.ID] = true
				out = append(out, e.ID)
			}
		}
	}
	return out
}

// expandOne is a one-ID Expand: id's neighbors in dir.
func expandOne(s store.Store, id string, dir store.Direction) ([]string, error) {
	adj, err := s.Expand([]string{id}, dir)
	return adj[id], err
}

func encodeAdj(adj map[string][]string) string {
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, adj[k])
	}
	return b.String()
}

// Property: a sharded router over 1, 2 and 4 shards answers every one-ID
// and whole-graph Expand and every Closure identically to a single
// MemStore loaded with the same run logs in the same order — the router's
// conformance contract — with the runs where placement puts them and
// spread round-robin across the shards. Two fixed runs join every input:
// "edge-raw" is an artifact nothing generates, and "edge-dual" is an
// artifact in one run and an execution in the other, which Expand must
// classify artifact-first even when the two runs sit on different shards.
func TestQuickShardedMatchesSingleStore(t *testing.T) {
	f := func(seed int64) bool {
		logs := append(synthLogs(seed, 12),
			shapedRun("edge-r1", "edge-e1", []string{"edge-dual", "edge-raw"}, []string{"edge-a1"}),
			shapedRun("edge-r2", "edge-dual", []string{"edge-a1"}, []string{"edge-b1"}))
		ref := store.NewMemStore()
		for _, l := range logs {
			if err := ref.PutRunLog(l); err != nil {
				t.Logf("ref ingest: %v", err)
				return false
			}
		}
		entities := entitiesOf(logs)
		for _, nShards := range []int{1, 2, 4} {
			for _, spread := range []bool{false, true} {
				r := NewMem(nShards)
				putAll(t, r, logs, spread)
				if !agreesWithReference(t, r, ref, logs, entities, fmt.Sprintf("shards=%d spread=%v", nShards, spread)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// agreesWithReference asserts the router and the reference store agree on
// runs, stats, every one-ID and whole-graph Expand frontier (an unknown ID
// included) and every closure, in both directions.
func agreesWithReference(t *testing.T, r *Router, ref *store.MemStore, logs []*provenance.RunLog, entities []string, label string) bool {
	t.Helper()
	refRuns, _ := ref.Runs()
	gotRuns, _ := r.Runs()
	if fmt.Sprint(gotRuns) != fmt.Sprint(refRuns) {
		t.Logf("%s: Runs = %v, want %v", label, gotRuns, refRuns)
		return false
	}
	refStats, _ := ref.Stats()
	gotStats, err := r.Stats()
	if err != nil || gotStats.Runs != refStats.Runs || gotStats.Artifacts != refStats.Artifacts ||
		gotStats.Executions != refStats.Executions || gotStats.Events != refStats.Events {
		t.Logf("%s: Stats = %+v (err %v), want counts of %+v", label, gotStats, err, refStats)
		return false
	}
	refEnts, _ := ref.Entities(entities)
	ents, err := r.Entities(entities)
	if err != nil {
		t.Logf("%s: Entities: %v", label, err)
		return false
	}
	for i, id := range entities {
		// Entity records are last-write-wins: the router must serve the
		// same (latest) declaration the reference store holds.
		if entityRun(ents[i]) != entityRun(refEnts[i]) {
			t.Logf("%s: Entities[%s] = %+v; want %+v", label, id, ents[i], refEnts[i])
			return false
		}
		for _, dir := range []store.Direction{store.Up, store.Down} {
			want, _ := expandOne(ref, id, dir)
			got, err := expandOne(r, id, dir)
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("%s: Expand([%s], %v) = %v, %v; want %v", label, id, dir, got, err, want)
				return false
			}
		}
	}
	// The whole frontier, an unknown ID, then every other entity again: a
	// repeated ID must come back once, with the oracle's list.
	probe := append(append([]string(nil), entities...), "ghost-entity")
	for i := 0; i < len(entities); i += 2 {
		probe = append(probe, entities[i])
	}
	for _, dir := range []store.Direction{store.Up, store.Down} {
		want, err := ref.Expand(probe, dir)
		if err != nil {
			t.Logf("%s: ref Expand: %v", label, err)
			return false
		}
		got, err := r.Expand(probe, dir)
		if err != nil {
			t.Logf("%s: Expand: %v", label, err)
			return false
		}
		if encodeAdj(got) != encodeAdj(want) {
			t.Logf("%s %v: Expand mismatch:\n got %s\nwant %s", label, dir, encodeAdj(got), encodeAdj(want))
			return false
		}
		for _, id := range entities {
			want, werr := ref.Closure(id, dir)
			got, gerr := r.Closure(id, dir)
			if (werr == nil) != (gerr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("%s %v: Closure(%s) = %v, %v; want %v, %v", label, dir, id, got, gerr, want, werr)
				return false
			}
		}
		if _, err := r.Closure("ghost-entity", dir); !errors.Is(err, store.ErrNotFound) {
			t.Logf("%s %v: ghost Closure err = %v", label, dir, err)
			return false
		}
	}
	return true
}

// entityRun names an entity record's kind and run, "" for an unknown ID.
func entityRun(e store.Entity) string {
	switch {
	case e.Artifact != nil:
		return "artifact " + e.Artifact.RunID
	case e.Execution != nil:
		return "execution " + e.Execution.RunID
	}
	return ""
}

// A router over a mix of backends (mem and file shards) behaves like the
// homogeneous configurations.
func TestShardedMixedBackends(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New([]Shard{store.NewMemStore(), fs, store.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	logs := synthLogs(42, 10)
	ref := store.NewMemStore()
	for _, l := range logs {
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	putAll(t, r, logs, true) // every backend holds runs
	if !agreesWithReference(t, r, ref, logs, entitiesOf(logs), "mixed") {
		t.Fatal("mixed-backend router diverged from reference")
	}
}

// Concurrent multi-writer ingest: writers with disjoint run sets ingest in
// parallel (their sources spread across the shards) while readers traverse; the final
// state must match a single reference store, and the duplicate-run error
// must surface exactly once per contended ID. Run under -race in CI.
func TestShardedConcurrentIngest(t *testing.T) {
	const writers = 8
	const runsEach = 6
	r, err := OpenWith(t.TempDir(), 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	perWriter := make([][]*provenance.RunLog, writers)
	var all []*provenance.RunLog
	for w := 0; w < writers; w++ {
		perWriter[w] = synthLogs(int64(1000+w), runsEach)
		all = append(all, perWriter[w]...)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers exercise routed reads and the directory under ingest.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				runs, err := r.Runs()
				if err != nil {
					t.Error(err)
					return
				}
				for _, runID := range runs {
					l, err := r.RunLog(runID)
					if err != nil {
						t.Error(err)
						return
					}
					for _, a := range l.Artifacts {
						if _, err := r.Closure(a.ID, store.Down); err != nil && !errors.Is(err, store.ErrNotFound) {
							t.Error(err)
							return
						}
					}
					break // one run per sweep keeps the loop cheap
				}
			}
		}()
	}
	var werr sync.Map
	var ingest sync.WaitGroup
	for w := 0; w < writers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			for _, l := range perWriter[w] {
				if err := r.PutRunLog(l); err != nil {
					werr.Store(l.Run.ID, err)
				}
			}
		}(w)
	}
	ingest.Wait()
	close(stop)
	wg.Wait()
	werr.Range(func(k, v any) bool {
		t.Errorf("ingest %v: %v", k, v)
		return true
	})

	// Duplicate ingest of an already-stored run fails wherever it raced to.
	if err := r.PutRunLog(perWriter[0][0]); err == nil {
		t.Fatal("duplicate run accepted")
	}

	// Final state: every run retrievable, closures equal to a reference
	// store loaded with the same logs. Writers had disjoint entity
	// namespaces, so ingest interleaving cannot change the final graph.
	ref := store.NewMemStore()
	for _, l := range all {
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := r.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(all) {
		t.Fatalf("stored %d runs, want %d", len(runs), len(all))
	}
	for _, id := range entitiesOf(all) {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			want, werr := ref.Closure(id, dir)
			got, gerr := r.Closure(id, dir)
			if (werr == nil) != (gerr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: Closure(%s) = %v, %v; want %v, %v", dir, id, got, gerr, want, werr)
			}
		}
	}
}

// Reopening file-backed shards rebuilds the routing and entity indexes
// from the shard logs plus the manifest order journal: Runs() order and
// generator last-write-wins tie-breaks are restored exactly, so the
// reopened router still answers identically to the reference store —
// including across the generator re-declarations synthLogs mixes in.
func TestShardedReopenRebuild(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 3, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logs := synthLogs(7, 10)
	ref := store.NewMemStore()
	for _, l := range logs {
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if err := r.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenWith(dir, 3, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !agreesWithReference(t, r2, ref, logs, entitiesOf(logs), "reopened") {
		t.Fatal("reopened router diverged from reference")
	}

	// Losing the manifest degrades only ordering metadata: a reopen without
	// it recovers every run from the shard scan.
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestFileName)); err != nil {
		t.Fatal(err)
	}
	r3, err := OpenWith(dir, 3, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	runs, err := r3.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(logs) {
		t.Fatalf("manifest-less reopen found %d runs, want %d", len(runs), len(logs))
	}
	for _, id := range runs {
		if _, err := r3.RunLog(id); err != nil {
			t.Fatal(err)
		}
	}
}

// Placement is run-complete: every run log lives whole on exactly the one
// shard whose Runs() lists it — the shard the router reads it from — and no
// other shard stores any part of it.
func TestShardedRoutingDeterministic(t *testing.T) {
	for _, spread := range []bool{false, true} {
		r := NewMem(4)
		logs := synthLogs(99, 80)
		putAll(t, r, logs, spread)
		at := membership(t, r)
		for _, l := range logs {
			home, ok := at[l.Run.ID]
			if !ok || r.runShard[l.Run.ID] != home {
				t.Fatalf("spread %v: run %s listed by shard %d (%v), routed to %d", spread, l.Run.ID, home, ok, r.runShard[l.Run.ID])
			}
			for si := 0; si < r.NumShards(); si++ {
				got, err := r.Shard(si).RunLog(l.Run.ID)
				if si == home && (err != nil || len(got.Events) != len(l.Events) || len(got.Artifacts) != len(l.Artifacts)) {
					t.Fatalf("spread %v: run %s not whole on its shard %d: %v", spread, l.Run.ID, home, err)
				}
				if si != home && err == nil {
					t.Fatalf("spread %v: run %s duplicated on shard %d (listed by %d)", spread, l.Run.ID, si, home)
				}
			}
		}
	}
}

// TestEmptyRunIDRefused: a FileStore and the router refuse a run log with
// an empty run ID, and a reopen keeps every run stored before and after
// the refused one. Recovery cannot key such a record, and used to truncate
// the log there, dropping every later run with it.
func TestEmptyRunIDRefused(t *testing.T) {
	fileDir, routerDir := t.TempDir(), t.TempDir()
	for _, tc := range []struct {
		name string
		open func() (store.Store, error)
	}{
		{"file", func() (store.Store, error) { return store.OpenFileStoreWith(fileDir, store.FileOptions{}) }},
		{"router", func() (store.Store, error) { return OpenWith(routerDir, 4, store.FileOptions{}) }},
	} {
		st, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutRunLog(shapedRun("e-before", "e-before-x", nil, []string{"e-a"})); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := st.PutRunLog(shapedRun("", "e-bad-x", []string{"e-a"}, []string{"e-b"})); err == nil {
			t.Fatalf("%s: accepted a run log with an empty run ID", tc.name)
		}
		if err := st.PutRunLog(shapedRun("e-after", "e-after-x", []string{"e-a"}, []string{"e-c"})); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = tc.open(); err != nil {
			t.Fatalf("%s: reopen: %v", tc.name, err)
		}
		runs, err := st.Runs()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(runs) != "[e-before e-after]" {
			t.Fatalf("%s: reopened runs %v, want [e-before e-after]", tc.name, runs)
		}
		for _, id := range runs {
			if _, err := st.RunLog(id); err != nil {
				t.Fatalf("%s: reopened %s: %v", tc.name, id, err)
			}
		}
		st.Close()
	}
}

// BenchmarkRouterExpand times Router.Expand on 16-ID frontiers, the size
// of provload's /v1/expand requests, over 4 file shards holding 2 000
// runs with shared inputs, from parallel readers in each direction. A
// frontier is 16 artifacts consecutive in creation order: related
// entities, as one BFS hop would send them.
func BenchmarkRouterExpand(b *testing.B) {
	const runs, frontier = 2000, 16
	r, err := OpenWith(b.TempDir(), 4, store.FileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	logs := synthLogs(7, runs)
	for _, l := range logs {
		if err := r.PutRunLog(l); err != nil {
			b.Fatal(err)
		}
	}
	var arts []string
	for _, id := range entitiesOf(logs) {
		if strings.HasPrefix(id, "art-") {
			arts = append(arts, id)
		}
	}
	for _, dir := range []store.Direction{store.Up, store.Down} {
		b.Run("dir="+dir.String(), func(b *testing.B) {
			b.ReportAllocs()
			var start atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				at := int(start.Add(997))
				for pb.Next() {
					at = (at + frontier) % (len(arts) - frontier)
					if _, err := r.Expand(arts[at:at+frontier], dir); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
