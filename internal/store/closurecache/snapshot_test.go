package closurecache

import (
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
	gen := c.Generation()
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
	if c2.Generation() != gen {
		t.Fatalf("generation = %d, want %d", c2.Generation(), gen)
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
