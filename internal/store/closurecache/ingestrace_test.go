package closurecache

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
)

// blockingStore wraps a Store and parks PutRunLog for one designated run
// ID — either before or after delegating the commit — so tests can hold
// an ingest at a precise point of the cache's concurrency protocol. The
// park point signals on parked and waits for release.
type blockingStore struct {
	store.Store
	blockRun   string
	blockAfter bool // park after the commit (the committed-but-unapplied window)
	parked     chan struct{}
	release    chan struct{}
}

func (b *blockingStore) PutRunLog(l *provenance.RunLog) error {
	if l.Run.ID != b.blockRun {
		return b.Store.PutRunLog(l)
	}
	if b.blockAfter {
		err := b.Store.PutRunLog(l)
		b.parked <- struct{}{}
		<-b.release
		return err
	}
	b.parked <- struct{}{}
	<-b.release
	return b.Store.PutRunLog(l)
}

// TestCheckpointQuiescesInflightIngest pins the snapshot consistency rule:
// an additive ingest commits to the backing store before taking the cache
// lock, and a checkpoint taken inside that window must wait for the delta
// to be applied — otherwise the snapshot records a run prefix covering the
// run while its closures miss the delta, and a restart serves them stale
// (loadSnapshot replays only the runs past the recorded prefix).
func TestCheckpointQuiescesInflightIngest(t *testing.T) {
	dir := t.TempDir()
	mem := store.NewMemStore()
	bs := &blockingStore{
		Store:      mem,
		blockRun:   "parked",
		blockAfter: true,
		parked:     make(chan struct{}),
		release:    make(chan struct{}),
	}
	c := New(bs, Options{SnapshotDir: dir})

	l, head, tail := chainLog(8)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(head, store.Down); err != nil {
		t.Fatal(err)
	}

	// Park an ingest with its run committed to the store but its delta not
	// yet folded into the cache.
	ingestDone := make(chan error, 1)
	go func() { ingestDone <- c.PutRunLog(extRun("parked", tail, "parked-art", "")) }()
	<-bs.parked

	ckptDone := make(chan error, 1)
	go func() { ckptDone <- c.Checkpoint() }()
	select {
	case err := <-ckptDone:
		t.Fatalf("checkpoint completed (err=%v) while an ingest was committed but unapplied", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(bs.release)
	if err := <-ingestDone; err != nil {
		t.Fatal(err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart from that snapshot must serve the parked run's delta warm.
	c2 := New(mem, Options{SnapshotDir: dir})
	defer c2.Close()
	if m := c2.Metrics(); m.Restored == 0 {
		t.Fatalf("nothing restored: %+v", m)
	}
	got, err := c2.Closure(head, store.Down)
	if err != nil {
		t.Fatal(err)
	}
	if m := c2.Metrics(); m.ClosureHits != 1 {
		t.Fatalf("restored closure was not a hit: %+v", m)
	}
	want, err := store.NaiveClosure(mem, head, store.Down)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored closure missed the in-flight ingest's delta:\n got %v\nwant %v", got, want)
	}
}

// TestConcurrentAdditiveGeneratorRace pins the additive path's apply-time
// hazard re-check: two concurrent logs declaring a generator for the same
// previously generator-less artifact both classify additive, and the
// losing edge must not linger in a cached upstream closure. The loser here
// commits and applies while the eventual winner is parked pre-commit, so
// the winner's later apply cannot detect anything by probing — only the
// conservative resident-artifact eviction keeps the cache honest.
func TestConcurrentAdditiveGeneratorRace(t *testing.T) {
	mem := store.NewMemStore()
	bs := &blockingStore{
		Store:    mem,
		blockRun: "winner",
		parked:   make(chan struct{}),
		release:  make(chan struct{}),
	}
	c := New(bs, Options{})

	// seed is generated by e0, which used x; x has no generator yet.
	base := &provenance.RunLog{}
	base.Run = provenance.Run{ID: "base", WorkflowID: "wf", Status: provenance.StatusOK}
	base.Executions = []*provenance.Execution{{ID: "e0", RunID: "base", ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	base.Artifacts = []*provenance.Artifact{{ID: "seed", RunID: "base", Type: "blob"}, {ID: "x", RunID: "base", Type: "blob"}}
	base.Events = []provenance.Event{
		{Seq: 1, RunID: "base", Kind: provenance.EventArtifactUsed, ExecutionID: "e0", ArtifactID: "x"},
		{Seq: 2, RunID: "base", Kind: provenance.EventArtifactGen, ExecutionID: "e0", ArtifactID: "seed"},
	}
	if err := c.PutRunLog(base); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure("seed", store.Up); err != nil {
		t.Fatal(err)
	}

	// The winner classifies additive (x has no generator yet) and parks
	// before its commit; the loser then commits AND applies its delta, so
	// the winner's commit is the store's last write — the final truth.
	winnerDone := make(chan error, 1)
	go func() { winnerDone <- c.PutRunLog(extRun("winner", "w-in", "w-out", "x")) }()
	<-bs.parked
	if err := c.PutRunLog(extRun("loser", "l-in", "l-out", "x")); err != nil {
		t.Fatal(err)
	}
	close(bs.release)
	if err := <-winnerDone; err != nil {
		t.Fatal(err)
	}

	got, err := c.Closure("seed", store.Up)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.NaiveClosure(mem, "seed", store.Up)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("losing generator edge lingered in cached closure:\n got %v\nwant %v", got, want)
	}
}

// TestExpandReadsTheCommittedStore: Expand is the backing store's answer at
// every point of an ingest. An ingest is parked with its run committed to
// the store but its delta not yet applied; an Expand of a source read
// before the ingest — one gaining a consumer, one whose generator the run
// replaces — must already return the store's new neighbours, as it must
// once the ingest returns.
func TestExpandReadsTheCommittedStore(t *testing.T) {
	mem := store.NewMemStore()
	bs := &blockingStore{
		Store:      mem,
		blockRun:   "fresh",
		blockAfter: true,
		parked:     make(chan struct{}),
		release:    make(chan struct{}),
	}
	c := New(bs, Options{})
	l, _, tail := chainLog(8)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	probes := []struct {
		id  string
		dir store.Direction
	}{{tail, store.Down}, {artID(4), store.Up}}
	expandMatches := func(when string) {
		t.Helper()
		for _, p := range probes {
			got, err := c.Expand([]string{p.id}, p.dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mem.Expand([]string{p.id}, p.dir)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Expand(%s, %v) = %v, store has %v", when, p.id, p.dir, got, want)
			}
		}
	}
	expandMatches("before the ingest")

	done := make(chan error, 1)
	go func() { done <- c.PutRunLog(extRun("fresh", tail, "fresh-out", artID(4))) }()
	<-bs.parked
	expandMatches("run committed, delta unapplied")
	close(bs.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	expandMatches("after the ingest")
}
