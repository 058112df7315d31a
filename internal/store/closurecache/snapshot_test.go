package closurecache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
	"repro/internal/store/wal"
)

// extRun builds a run consuming `in` and generating `out` (plus an
// optional generator re-declaration of `regen` by the same execution).
func extRun(id, in, out, regen string) *provenance.RunLog {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}
	exec := id + "-exec"
	l.Executions = []*provenance.Execution{{ID: exec, RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	l.Artifacts = []*provenance.Artifact{{ID: in, RunID: id, Type: "blob"}, {ID: out, RunID: id, Type: "blob"}}
	l.Events = []provenance.Event{
		{Seq: 1, RunID: id, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in},
		{Seq: 2, RunID: id, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
	}
	if regen != "" {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: regen, RunID: id, Type: "blob"})
		l.Events = append(l.Events, provenance.Event{Seq: 3, RunID: id, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: regen})
	}
	return l
}

// TestSnapshotWarmRestart checkpoints a warm cache over a file store,
// reopens both, and asserts the first closure is a cache hit identical to
// a cold recomputation.
func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	l, head, tail := chainLog(48)

	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(fs, Options{SnapshotDir: dir})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	want, err := c.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(head, store.Down); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := c.Metrics().Generation
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(fs2, Options{SnapshotDir: dir})
	defer c2.Close()
	m := c2.Metrics()
	if m.Restored != 2 {
		t.Fatalf("restored %d closures, want 2 (metrics %+v)", m.Restored, m)
	}
	if got := c2.Metrics().Generation; got != gen {
		t.Fatalf("generation = %d, want %d", got, gen)
	}
	got, err := c2.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored closure diverged:\n got %v\nwant %v", got, want)
	}
	if m := c2.Metrics(); m.ClosureHits != 1 || m.ClosureMisses != 0 {
		t.Fatalf("restored closure was not a hit: %+v", m)
	}
}

// TestSnapshotSuffixReplay takes a snapshot, ingests more runs (bypassing
// any future cache), reopens, and asserts the restored closures were
// patched with the suffix — equal to NaiveClosure on the current graph.
// The suffix streams through the store's scanner: from a file store's log,
// and merged across shards from a router under its trace wrapper.
func TestSnapshotSuffixReplay(t *testing.T) {
	open := map[string]func(dir string) (store.Store, error){
		"file": func(dir string) (store.Store, error) { return store.OpenFileStore(dir) },
		"sharded": func(dir string) (store.Store, error) {
			r, err := shardedstore.OpenWith(dir, 4, store.FileOptions{})
			if err != nil {
				return nil, err
			}
			return r.WithTrace(func(shardedstore.ClosureTrace) {}), nil
		},
	}
	for name, open := range open {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, head, tail := chainLog(16)

			fs, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			c := New(fs, Options{SnapshotDir: dir})
			if err := c.PutRunLog(l); err != nil {
				t.Fatal(err)
			}
			if err := c.PutRunLog(extRun("prefix-1", "px-in", "px-out", "")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Closure(head, store.Down); err != nil {
				t.Fatal(err)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// More runs land after the snapshot, extending the chain's tail
			// (enough of them to spread over every shard).
			const suffix = 8
			prev := tail
			for i := 1; i <= suffix; i++ {
				next := fmt.Sprintf("sx-art-%d", i)
				if err := c.PutRunLog(extRun(fmt.Sprintf("suffix-%d", i), prev, next, "")); err != nil {
					t.Fatal(err)
				}
				prev = next
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			fs2, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			c2 := New(fs2, Options{SnapshotDir: dir})
			defer c2.Close()
			if m := c2.Metrics(); m.Restored == 0 {
				t.Fatalf("nothing restored: %+v", m)
			}
			got, err := c2.Closure(head, store.Down)
			if err != nil {
				t.Fatal(err)
			}
			if m := c2.Metrics(); m.ClosureHits != 1 {
				t.Fatalf("suffix-replayed closure was not a hit: %+v", m)
			}
			want, err := store.NaiveClosure(fs2, head, store.Down)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("suffix replay diverged:\n got %v\nwant %v", got, want)
			}
			for i := 1; i <= suffix; i++ {
				must := fmt.Sprintf("sx-art-%d", i)
				if at := sort.SearchStrings(got, must); at == len(got) || got[at] != must {
					t.Fatalf("suffix node %s missing from restored closure %v", must, got)
				}
			}
		})
	}
}

// TestSnapshotReplayHazardEvicts re-declares a cached artifact's generator
// in the suffix: the restored upstream entry containing it must not be
// served stale.
func TestSnapshotReplayHazardEvicts(t *testing.T) {
	dir := t.TempDir()
	l, _, tail := chainLog(8)

	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(fs, Options{SnapshotDir: dir})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(tail, store.Up); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The suffix run replaces the generator of a mid-chain artifact the
	// cached upstream closure contains.
	if err := c.PutRunLog(extRun("haz-1", "c-art-0000", "hz-out", "c-art-0004")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(fs2, Options{SnapshotDir: dir})
	defer c2.Close()
	got, err := c2.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.NaiveClosure(fs2, tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-hazard closure diverged:\n got %v\nwant %v", got, want)
	}
}

// TestSnapshotDivergedStoreIgnored replaces the store under a snapshot:
// the snapshot must be dropped, not half-applied.
func TestSnapshotDivergedStoreIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _, tail := chainLog(8)
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(fs, Options{SnapshotDir: dir})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(tail, store.Up); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// A different history: same snapshot file, fresh store with one
	// different run.
	other, _, _ := chainLog(4)
	other.Run.ID = "different-run"
	for _, e := range other.Executions {
		e.RunID = other.Run.ID
	}
	for _, a := range other.Artifacts {
		a.RunID = other.Run.ID
	}
	for i := range other.Events {
		other.Events[i].RunID = other.Run.ID
	}
	mem := store.NewMemStore()
	if err := mem.PutRunLog(other); err != nil {
		t.Fatal(err)
	}
	c2 := New(mem, Options{SnapshotDir: dir})
	if m := c2.Metrics(); m.Restored != 0 || m.ClosureEntries != 0 {
		t.Fatalf("diverged snapshot partially restored: %+v", m)
	}
}

// TestWarmReopenSurvivesCorruptPrefix is the acceptance scenario: after a
// checkpoint, the pre-checkpoint log prefix is corrupted in place, and the
// reopened store still serves the closure warm from the restored snapshot
// — proof that neither the store nor the cache replayed the full log.
func TestWarmReopenSurvivesCorruptPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _, tail := chainLog(32)

	fs, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	c := New(fs, Options{SnapshotDir: dir})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	want, err := c.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptOff, ok := fs.LastCheckpoint()
	if !ok || ckptOff < 64 {
		t.Fatalf("LastCheckpoint = %d, %v", ckptOff, ok)
	}
	// One post-checkpoint run so the reopen has a real suffix to replay.
	if err := c.PutRunLog(extRun("post", tail, "post-art", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Scribble over most of the pre-checkpoint prefix.
	logPath := filepath.Join(dir, store.LogFileName)
	f, err := os.OpenFile(logPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, ckptOff-16)
	for i := range garbage {
		garbage[i] = '?'
	}
	if _, err := f.WriteAt(garbage, 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs2, err := store.OpenFileStoreWith(dir, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(fs2, Options{SnapshotDir: dir})
	defer c2.Close()
	got, err := c2.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if m := c2.Metrics(); m.ClosureHits != 1 || m.Restored == 0 {
		t.Fatalf("closure not served warm after corrupt-prefix reopen: %+v", m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm closure diverged after corrupt-prefix reopen:\n got %v\nwant %v", got, want)
	}
	// The suffix run must be visible too: the downstream closure of the
	// old tail reaches the post-checkpoint artifact.
	down, err := c2.Closure(tail, store.Down)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range down {
		if id == "post-art" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-checkpoint suffix missing from reopened store: %v", down)
	}
}

// TestCachePutDoesNotSerializeGroupCommit pins the -cache -durability
// group stack, over one file store and over a 4-shard router: additive
// ingests must reach the WAL concurrently (neither the cache lock nor the
// router's is held across a shard commit), so concurrent writers coalesce
// into shared fsync batches instead of degenerating to one fsync per run.
// GroupFlushDelay gives each lone leader a bounded joiner window — on
// tmpfs the fsync itself is too fast for commit-latency overlap to batch
// reliably — and a serialized stack still fails here, because writers
// stuck behind a lock can never join the window.
func TestCachePutDoesNotSerializeGroupCommit(t *testing.T) {
	opt := store.FileOptions{Durability: store.DurabilityGroup, GroupFlushDelay: 2 * time.Millisecond}
	for _, backend := range []struct {
		name string
		open func(t *testing.T, dir string) (store.Store, func() wal.Metrics)
	}{
		{"file", func(t *testing.T, dir string) (store.Store, func() wal.Metrics) {
			fs, err := store.OpenFileStoreWith(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			return fs, fs.WALMetrics
		}},
		{"shards=4", func(t *testing.T, dir string) (store.Store, func() wal.Metrics) {
			r, err := shardedstore.OpenWith(dir, 4, opt)
			if err != nil {
				t.Fatal(err)
			}
			return r, func() (sum wal.Metrics) {
				for i := 0; i < r.NumShards(); i++ {
					m := r.Shard(i).(*store.FileStore).WALMetrics()
					sum.Appends += m.Appends
					sum.Syncs += m.Syncs
				}
				return sum
			}
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			dir := t.TempDir()
			st, walMetrics := backend.open(t, dir)
			c := New(st, Options{SnapshotDir: dir})
			defer c.Close()
			const writers, each = 16, 20
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						id := fmt.Sprintf("gc-%02d-%03d", w, i)
						if err := c.PutRunLog(extRun(id, id+"-in", id+"-out", "")); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			m := walMetrics()
			if m.Appends != writers*each {
				t.Fatalf("appends = %d, want %d", m.Appends, writers*each)
			}
			if m.Syncs >= m.Appends {
				t.Fatalf("cache serialized group commit: %d syncs for %d appends", m.Syncs, m.Appends)
			}
			t.Logf("coalesced %d cached ingests into %d fsyncs", m.Appends, m.Syncs)
			// And the cached state stayed coherent with the store.
			got, err := c.Closure("gc-00-000-in", store.Down)
			if err != nil {
				t.Fatal(err)
			}
			want, err := store.NaiveClosure(st, "gc-00-000-in", store.Down)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cached closure diverged after concurrent ingest:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestAutoCheckpointEvery asserts CheckpointEvery writes the snapshot
// without an explicit call.
func TestAutoCheckpointEvery(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(fs, Options{SnapshotDir: dir, CheckpointEvery: 2})
	defer c.Close()
	l, _, tail := chainLog(4)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(tail, store.Up); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SnapshotPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("snapshot written before CheckpointEvery reached: err=%v", err)
	}
	if err := c.PutRunLog(extRun("auto-1", tail, "au-art-1", "")); err != nil {
		t.Fatal(err)
	}
	// Auto-checkpoints run off the ingest path; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(SnapshotPath(dir)); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot not written at CheckpointEvery")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFollowerSnapshotWindow: a follower folds a replicated run into its
// store before the cache's ApplyDelta sees it, outside the ingest gate. A
// checkpoint taken in between must not record a run prefix covering that
// run, or the reopened cache never replays it and serves the closure
// without it.
func TestFollowerSnapshotWindow(t *testing.T) {
	primary, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	dir := t.TempDir()
	follower, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ship := func(l *provenance.RunLog) []*provenance.RunLog {
		t.Helper()
		if err := primary.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		data, _, err := primary.ReadCommitted(follower.CommittedOffset(), 0)
		if err != nil {
			t.Fatal(err)
		}
		logs, _, err := follower.ApplyReplicated(data)
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}
	ship(extRun("r1", "a0", "a1", ""))
	c := New(follower, Options{SnapshotDir: dir})
	if _, err := c.Closure("a0", store.Down); err != nil {
		t.Fatal(err)
	}
	logs := ship(extRun("r2", "a1", "a2", ""))
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, l := range logs {
		c.ApplyDelta(l)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(re, Options{SnapshotDir: dir})
	defer c2.Close()
	got, err := c2.Closure("a0", store.Down)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.NaiveClosure(re, "a0", store.Down)
	if err != nil {
		t.Fatal(err)
	}
	if m := c2.Metrics(); m.Restored != 1 || m.ClosureHits != 1 {
		t.Fatalf("closure not served warm after the reopen: %+v", m)
	}
	if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
		t.Fatalf("restored closure = %v, the store says %v", sortedCopy(got), sortedCopy(want))
	}
}

// snapshotFixture checkpoints a cache over a MemStore holding a chain and
// two runs hanging off it, with closures cached in both directions, and
// returns the snapshot payload, the store and the cached keys.
func snapshotFixture(t testing.TB) (*cacheSnapshot, *store.MemStore, []Key) {
	t.Helper()
	dir := t.TempDir()
	mem := store.NewMemStore()
	c := New(mem, Options{SnapshotDir: dir})
	l, head, tail := chainLog(6)
	for _, l := range []*provenance.RunLog{l, extRun("side-1", tail, "side-1-out", ""), extRun("side-2", "c-art-0003", "side-2-out", "")} {
		if err := c.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	keys := []Key{{head, store.Down}, {tail, store.Up}, {"side-1-out", store.Up}, {"c-art-0003", store.Down}}
	for _, k := range keys {
		if _, err := c.Closure(k.ID, k.Dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, ok := decodeSnapshot(mustLoad(t, SnapshotPath(dir)))
	if !ok {
		t.Fatal("the snapshot does not decode")
	}
	return snap, mem, keys
}

// mustLoad is the payload of the intact snapshot file at path.
func mustLoad(t testing.TB, path string) []byte {
	t.Helper()
	payload, ok := wal.LoadCheckpoint(path)
	if !ok {
		t.Fatalf("no intact snapshot at %s", path)
	}
	return payload
}

// snapshotMutations are payloads one edit away from a valid snapshot, each
// breaking one invariant restoreIndex must enforce.
func snapshotMutations(t testing.TB, valid *cacheSnapshot) map[string][]byte {
	mutate := func(edit func(s *cacheSnapshot)) []byte {
		s, ok := decodeSnapshot(valid.encode())
		if !ok {
			t.Fatal("a fresh snapshot does not decode")
		}
		edit(s)
		return s.encode()
	}
	return map[string][]byte{
		"version 1":               mutate(func(s *cacheSnapshot) { s.Version = 1 }),
		"version 2":               mutate(func(s *cacheSnapshot) { s.Version = 2 }),
		"short column":            mutate(func(s *cacheSnapshot) { s.Lens = s.Lens[1:] }),
		"handle out of range":     mutate(func(s *cacheSnapshot) { s.Refs[0] = int32(len(s.IDs)) }),
		"negative handle":         mutate(func(s *cacheSnapshot) { s.Refs[0] = -1 }),
		"root out of range":       mutate(func(s *cacheSnapshot) { s.Roots[0] = int32(len(s.IDs)) }),
		"lens short of refs":      mutate(func(s *cacheSnapshot) { s.Refs = append(s.Refs, 0) }),
		"lens past refs":          mutate(func(s *cacheSnapshot) { s.Lens[0] += 1000 }),
		"negative length":         mutate(func(s *cacheSnapshot) { s.Lens[0] = -1 }),
		"duplicate dictionary ID": mutate(func(s *cacheSnapshot) { s.IDs[1] = s.IDs[0] }),
		"dirs = 2":                mutate(func(s *cacheSnapshot) { s.Dirs[0] = 2 }),
		"key twice": mutate(func(s *cacheSnapshot) {
			s.Roots[1], s.Dirs[1] = s.Roots[0], s.Dirs[0]
		}),
		"member twice": mutate(func(s *cacheSnapshot) {
			if s.Lens[0] < 2 {
				t.Fatal("fixture's first closure has fewer than two members")
			}
			s.Refs[1] = s.Refs[0]
		}),
	}
}

// TestSnapshotRestoreRejectsBrokenInvariants: every one-edit mutation of a
// valid snapshot, framed intact and covering every run, loads cold, and
// the cold cache answers each key as the store does.
func TestSnapshotRestoreRejectsBrokenInvariants(t *testing.T) {
	valid, mem, keys := snapshotFixture(t)
	if len(valid.Roots) != len(keys) {
		t.Fatalf("fixture snapshot holds %d closures, want %d", len(valid.Roots), len(keys))
	}
	load := func(body []byte) *Cache {
		dir := t.TempDir()
		if err := wal.SaveCheckpoint(SnapshotPath(dir), body); err != nil {
			t.Fatal(err)
		}
		return New(mem, Options{SnapshotDir: dir})
	}
	if m := load(valid.encode()).Metrics(); m.Restored != uint64(len(keys)) {
		t.Fatalf("the unmodified snapshot restored %d closures, want %d", m.Restored, len(keys))
	}
	for name, body := range snapshotMutations(t, valid) {
		c := load(body)
		if m := c.Metrics(); m.Restored != 0 || m.ClosureEntries != 0 {
			t.Errorf("%s: restore accepted it: %+v", name, m)
			continue
		}
		for _, k := range keys {
			got, err := c.Closure(k.ID, k.Dir)
			want, _ := mem.Closure(k.ID, k.Dir)
			if err != nil || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
				t.Errorf("%s: Closure%v = %v, %v; a fresh cache says %v", name, k, got, err, want)
			}
		}
	}
}

// v1Snapshot is the payload closures.json held before the handle columns:
// every member spelled out as an ID, no version field.
type v1Snapshot struct {
	Generation uint64 `json:"generation"`
	RunCount   int    `json:"run_count"`
	LastRun    string `json:"last_run"`
	Closures   []struct {
		ID    string   `json:"id"`
		Dir   int      `json:"dir"`
		Order []string `json:"order"`
	} `json:"closures"`
}

// v1Fixture is a v1 snapshot covering every run of mem whose one closure,
// tail's lineage, is wrong — so trusting it would show.
func v1Fixture(t testing.TB, mem *store.MemStore, tail string) *v1Snapshot {
	runs, err := mem.Runs()
	if err != nil {
		t.Fatal(err)
	}
	v1 := &v1Snapshot{Generation: 7, RunCount: len(runs), LastRun: runs[len(runs)-1]}
	v1.Closures = append(v1.Closures, struct {
		ID    string   `json:"id"`
		Dir   int      `json:"dir"`
		Order []string `json:"order"`
	}{tail, int(store.Up), []string{"not-in-the-lineage"}})
	return v1
}

// jsonSnapshot is the version-2 payload, the last JSON one: version 3's
// columns under these field names.
type jsonSnapshot struct {
	Version    int      `json:"version"`
	Generation uint64   `json:"generation"`
	RunCount   int      `json:"run_count"`
	LastRun    string   `json:"last_run"`
	IDs        []string `json:"ids"`
	Roots      []int32  `json:"roots"`
	Dirs       []int32  `json:"dirs"`
	Lens       []int32  `json:"lens"`
	Refs       []int32  `json:"refs"`
}

// v2Fixture is a version-2 snapshot covering every run of mem whose one
// closure, tail's lineage, is wrong — so trusting it would show.
func v2Fixture(t testing.TB, mem *store.MemStore, tail string) *jsonSnapshot {
	runs, err := mem.Runs()
	if err != nil {
		t.Fatal(err)
	}
	return &jsonSnapshot{
		Version: 2, Generation: 7, RunCount: len(runs), LastRun: runs[len(runs)-1],
		IDs: []string{tail, "not-in-the-lineage"}, Roots: []int32{0}, Dirs: []int32{int32(store.Up)}, Lens: []int32{1}, Refs: []int32{1},
	}
}

// TestV1SnapshotLoadsCold: a closures.json of the first format that covers
// every run loads cold and answers as the store does; the next Checkpoint
// writes the current version, which the next open restores warm.
func TestV1SnapshotLoadsCold(t *testing.T) {
	jsonSnapshotLoadsCold(t, func(mem *store.MemStore, tail string) any { return v1Fixture(t, mem, tail) })
}

// TestV2SnapshotLoadsCold is the upgrade path: a closures.json the last
// JSON build wrote loads cold like a v1 one.
func TestV2SnapshotLoadsCold(t *testing.T) {
	jsonSnapshotLoadsCold(t, func(mem *store.MemStore, tail string) any { return v2Fixture(t, mem, tail) })
}

func jsonSnapshotLoadsCold(t *testing.T, fixture func(mem *store.MemStore, tail string) any) {
	dir := t.TempDir()
	mem := store.NewMemStore()
	l, _, tail := chainLog(6)
	if err := mem.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if err := wal.SaveCheckpoint(SnapshotPath(dir), mustMarshal(t, fixture(mem, tail))); err != nil {
		t.Fatal(err)
	}
	want, _ := mem.Closure(tail, store.Up)

	c := New(mem, Options{SnapshotDir: dir})
	if m := c.Metrics(); m.Restored != 0 || m.ClosureEntries != 0 || m.Generation != 0 {
		t.Fatalf("the JSON snapshot was restored: %+v", m)
	}
	if got, err := c.Closure(tail, store.Up); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Closure after the cold load = %v, %v; want %v", got, err, want)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok := decodeSnapshot(mustLoad(t, SnapshotPath(dir))); !ok {
		t.Fatalf("Checkpoint left a file this build does not decode, want version %d", snapshotVersion)
	}

	warm := New(mem, Options{SnapshotDir: dir})
	if got, err := warm.Closure(tail, store.Up); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Closure after the warm load = %v, %v; want %v", got, err, want)
	}
	if m := warm.Metrics(); m.Restored != 1 || m.ClosureHits != 1 {
		t.Fatalf("the version-%d snapshot was not restored warm: %+v", snapshotVersion, m)
	}
}

// TestSnapshotSpellsEachIDOnce pins the point of the columns: closures
// sharing members name each ID once in the file, so 64 overlapping
// closures of one chain cost about one chain's worth of IDs.
func TestSnapshotSpellsEachIDOnce(t *testing.T) {
	dir := t.TempDir()
	mem := store.NewMemStore()
	c := New(mem, Options{SnapshotDir: dir})
	l, _, _ := chainLog(64)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	members := 0
	for i := 1; i <= 64; i++ {
		got, err := c.Closure(artID(i), store.Up)
		if err != nil {
			t.Fatal(err)
		}
		members += len(got)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, ok := decodeSnapshot(mustLoad(t, SnapshotPath(dir)))
	if !ok {
		t.Fatal("the snapshot does not decode")
	}
	if len(snap.IDs) != 129 || len(snap.Refs) != members {
		t.Fatalf("snapshot holds %d IDs and %d refs, want the chain's 129 and %d", len(snap.IDs), len(snap.Refs), members)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshotOf is what saveSnapshot writes for ix, under hdr's header.
func snapshotOf(ix *Index, hdr cacheSnapshot) *cacheSnapshot {
	s := &cacheSnapshot{Version: hdr.Version, Generation: hdr.Generation, RunCount: hdr.RunCount, LastRun: hdr.LastRun}
	ix.copyLive().columns(s)
	return s
}

// FuzzClosureSnapshot feeds the snapshot decoder arbitrary bytes twice
// over: as file contents (header, CRC, payload) and — since a fuzzer will
// not guess a CRC — as the payload behind an intact frame. Neither may
// panic. A payload restoreIndex accepts holds at most MaxClosures entries
// whose members are all dictionary IDs, survives a delta naming them, and
// load → save → load is a fixed point.
func FuzzClosureSnapshot(f *testing.F) {
	valid, mem, keys := snapshotFixture(f)
	v1 := mustMarshal(f, v1Fixture(f, mem, keys[1].ID))
	v2 := mustMarshal(f, v2Fixture(f, mem, keys[1].ID))
	for _, payload := range [][]byte{valid.encode(), v1, v2} {
		framed := wal.EncodeCheckpoint(payload)
		f.Add(payload)
		f.Add(framed)
		f.Add(payload[:len(payload)/2])
		f.Add(framed[:len(framed)/2])
	}
	for _, m := range snapshotMutations(f, valid) {
		f.Add(m)
	}

	const max = 3 // below the fixture's four closures: restore must truncate
	f.Fuzz(func(t *testing.T, data []byte) {
		if payload, ok := wal.DecodeCheckpoint(data); ok {
			if s, ok := decodeSnapshot(payload); ok {
				restoreIndex(s, max)
			}
		}
		s, ok := decodeSnapshot(data)
		if !ok {
			return
		}
		ix, ok := restoreIndex(s, max)
		if !ok {
			return
		}
		if ix.Len() > max {
			t.Fatalf("restored %d closures, MaxClosures is %d", ix.Len(), max)
		}
		first := snapshotOf(ix, *s).encode()
		for k, e := range ix.entries {
			for _, id := range append(ix.Members(e), k.ID) {
				if h, ok := ix.handles[id]; !ok || ix.ids[h] != id {
					t.Fatalf("%v holds %q, which is not a dictionary ID", k, id)
				}
			}
			ix.Apply(DeltaOf(extRun("fz", k.ID, "fz-out", k.ID)), mem.Expand)
		}
		again, ok := decodeSnapshot(first)
		if !ok {
			t.Fatalf("a saved snapshot does not decode: %x", first)
		}
		ix2, ok := restoreIndex(again, max)
		if !ok {
			t.Fatalf("a saved snapshot was refused: %x", first)
		}
		if second := snapshotOf(ix2, *again).encode(); !bytes.Equal(first, second) {
			t.Fatalf("load → save → load is not a fixed point:\n%x\n%x", first, second)
		}
	})
}

// TestCheckpointsDuringIngest: checkpoints taken while writers ingest and
// a replication-style applier folds runs the cache learns of afterwards
// each record a run prefix the closures hold; whichever snapshot is left,
// a reopen serves closures equal to the store's.
func TestCheckpointsDuringIngest(t *testing.T) {
	dir := t.TempDir()
	mem := store.NewMemStore()
	c := New(mem, Options{SnapshotDir: dir})
	l, head, _ := chainLog(8)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	keys := []Key{{head, store.Down}, {"c-art-0004", store.Down}}
	for _, k := range keys {
		if _, err := c.Closure(k.ID, k.Dir); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := "c-art-0004"
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				l := extRun(id, prev, id+"-out", "")
				if w == 0 {
					// The replication path: into the store first, the
					// delta to the cache later.
					if err := mem.PutRunLog(l); err != nil {
						t.Error(err)
						return
					}
					c.ApplyDelta(l)
				} else if err := c.PutRunLog(l); err != nil {
					t.Error(err)
					return
				}
				prev = id + "-out"
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			if err := c.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	re := New(mem, Options{SnapshotDir: dir})
	for _, k := range keys {
		got, err := re.Closure(k.ID, k.Dir)
		want, _ := store.NaiveClosure(mem, k.ID, k.Dir)
		if err != nil || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("Closure%v after the reopen = %v, %v; the store says %v", k, sortedCopy(got), err, sortedCopy(want))
		}
	}
	if m := re.Metrics(); m.Restored == 0 {
		t.Fatalf("nothing restored: %+v", m)
	}
}
