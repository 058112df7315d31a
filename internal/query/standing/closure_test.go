package standing

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
)

// link is one run: exec consumes in (when set) and generates out.
func link(run, in, out string) *provenance.RunLog {
	exec := run + "-exec"
	l := &provenance.RunLog{
		Run:        provenance.Run{ID: run, WorkflowID: "wf", Status: provenance.StatusOK},
		Executions: []*provenance.Execution{{ID: exec, RunID: run, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}},
		Artifacts:  []*provenance.Artifact{{ID: out, RunID: run, Type: "blob"}},
	}
	if in != "" {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: in, RunID: run, Type: "blob"})
		l.Events = append(l.Events, provenance.Event{Seq: 1, RunID: run, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in})
	}
	l.Events = append(l.Events, provenance.Event{Seq: 2, RunID: run, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
	return l
}

// flakyStore fails the Expand calls numbered in fail (counted from 1 since
// the last reset) and counts all of them.
type flakyStore struct {
	store.Store
	calls atomic.Int64
	fail  map[int64]bool
}

func (s *flakyStore) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	if n := s.calls.Add(1); s.fail[n] {
		return nil, errors.New("flaky: expand unavailable")
	}
	return s.Store.Expand(ids, dir)
}

// TestFailedPatchStillDelivers: a patch whose BFS fails on its second hop
// must not leave the first hop's members recorded as present but never
// published — no later delta would deliver them. A failed patch leaves the
// entry untouched and suspect, the recompute publishes the whole
// difference, and the subscriber's accumulated items equal the reference
// closure after every ingest.
func TestFailedPatchStillDelivers(t *testing.T) {
	mem := store.NewMemStore()
	st := &flakyStore{Store: mem}
	m := NewManager(st, Options{})
	tap := NewTap(st, m)
	if err := tap.PutRunLog(link("r0", "", "a0")); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindClosure, Root: "a0", Dir: store.Down}
	tr := newTracker(t, m, spec)
	check := func(step int) {
		t.Helper()
		tr.sync(t, m)
		want, err := store.NaiveClosure(mem, spec.Root, spec.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedSet(tr.state); fmt.Sprint(got) != fmt.Sprint(sortedCopy(want)) {
			t.Fatalf("step %d: delivered %v, reference closure %v", step, got, want)
		}
	}

	// r1 hangs r1-exec -> a1 below a0: the patch expands a0, then r1-exec
	// (the second hop, which fails), then a1.
	st.calls.Store(0)
	st.fail = map[int64]bool{2: true}
	if err := tap.PutRunLog(link("r1", "a0", "a1")); err != nil {
		t.Fatal(err)
	}
	if st.calls.Load() < 2 {
		t.Fatalf("the patch made %d Expand calls; the failing second hop was never reached", st.calls.Load())
	}
	check(1)

	// The store has recovered; later deltas keep extending the same result.
	st.fail = nil
	if err := tap.PutRunLog(link("r2", "a1", "a2")); err != nil {
		t.Fatal(err)
	}
	check(2)
}

// TestPatchTouchesOnlyAttachedSubs is the shape E20's incremental ÷ re-query
// ratio stood in for, on the index the closure cache shares (its twin there
// is TestPatchTouchesOnlyAttachedEntries): of 64 closure subscriptions, an
// ingest attaching below k of them makes Expand calls for those k — one per
// BFS level each — and none for the rest, and only those k hear of it.
func TestPatchTouchesOnlyAttachedSubs(t *testing.T) {
	st := &flakyStore{Store: store.NewMemStore()}
	m := NewManager(st, Options{})
	tap := NewTap(st, m)
	const subs, k = 64, 5
	var trackers []*tracker
	for i := 0; i < subs; i++ {
		head := fmt.Sprintf("c%02d-a0", i)
		if err := tap.PutRunLog(link(fmt.Sprintf("c%02d-r0", i), "", head)); err != nil {
			t.Fatal(err)
		}
		trackers = append(trackers, newTracker(t, m, Spec{Kind: KindClosure, Root: head, Dir: store.Down}))
	}
	// One run consumes the heads of chains 0..k-1 and generates one artifact.
	l := link("join", "", "join-out")
	for i := 0; i < k; i++ {
		head := fmt.Sprintf("c%02d-a0", i)
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: head, RunID: "join", Type: "blob"})
		l.Events = append(l.Events, provenance.Event{Seq: uint64(10 + i), RunID: "join", Kind: provenance.EventArtifactUsed, ExecutionID: "join-exec", ArtifactID: head})
	}
	st.calls.Store(0)
	if err := tap.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	// Each attached subscription walks head, join-exec, join-out: three levels.
	if got := st.calls.Load(); got != 3*k {
		t.Fatalf("the ingest made %d Expand calls, want %d (3 levels × %d attached subscriptions)", got, 3*k, k)
	}
	for i, tr := range trackers {
		before := tr.seq
		tr.sync(t, m)
		if heard := tr.seq != before; heard != (i < k) {
			t.Fatalf("subscription %d: heard of the ingest = %v, want %v", i, heard, i < k)
		}
		tr.verify(t, st, i)
	}
}

// Two subscriptions on one (root, direction) share an index entry; each
// keeps its own sequence, and the entry outlives the first to leave.
func TestSharedClosureEntry(t *testing.T) {
	st := store.NewMemStore()
	m := NewManager(st, Options{})
	tap := NewTap(st, m)
	if err := tap.PutRunLog(link("r0", "", "a0")); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindClosure, Root: "a0", Dir: store.Down}
	a, b := newTracker(t, m, spec), newTracker(t, m, spec)
	if err := tap.PutRunLog(link("r1", "a0", "a1")); err != nil {
		t.Fatal(err)
	}
	if !m.Unsubscribe(a.id) {
		t.Fatal("unsubscribe reported missing")
	}
	if err := tap.PutRunLog(link("r2", "a1", "a2")); err != nil {
		t.Fatal(err)
	}
	b.sync(t, m)
	b.verify(t, st, 2)
	if b.seq != 2 {
		t.Fatalf("remaining subscription saw %d events, want 2", b.seq)
	}
	if !m.Unsubscribe(b.id) || m.closures.Len() != 0 {
		t.Fatalf("last unsubscribe left %d index entries", m.closures.Len())
	}
}

func sortedCopy(items []string) []string {
	out := append(make([]string, 0, len(items)), items...)
	sort.Strings(out)
	return out
}
