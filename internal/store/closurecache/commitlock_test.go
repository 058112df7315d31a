package closurecache

import (
	"testing"
	"time"

	"repro/internal/store"
)

// TestPutNeverHoldsCacheLockAcrossCommit: the backing store is parked inside
// PutRunLog — where a file store would be waiting for its fsync — on a log
// that replaces a cached artifact's generator, the one ingest whose hazard
// concerns state the commit itself changes. A cached closure must still be
// served while the commit is in flight.
func TestPutNeverHoldsCacheLockAcrossCommit(t *testing.T) {
	bs := &blockingStore{
		Store:    store.NewMemStore(),
		blockRun: "rep",
		parked:   make(chan struct{}),
		release:  make(chan struct{}),
	}
	c := New(bs, Options{})
	l, _, tail := chainLog(8)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Closure(tail, store.Up); err != nil { // admit
		t.Fatal(err)
	}

	put := make(chan error, 1)
	go func() { put <- c.PutRunLog(extRun("rep", "rep-in", "rep-out", artID(4))) }()
	<-bs.parked

	hit := make(chan error, 1)
	go func() {
		_, err := c.Closure(tail, store.Up)
		hit <- err
	}()
	select {
	case err := <-hit:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cached Closure blocked behind an ingest parked in the backing store's commit")
	}
	if m := c.Metrics(); m.ClosureHits != 1 {
		t.Fatalf("the read during the commit was not a hit: %+v", m)
	}

	close(bs.release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Evicted != 1 {
		t.Fatalf("the generator replacement should have evicted the upstream closure: %+v", m)
	}
	got, err := c.Closure(tail, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := store.NaiveClosure(bs.Store, tail, store.Up)
	if len(got) != len(want) {
		t.Fatalf("closure after the replacement has %d members, reference %d", len(got), len(want))
	}
}
