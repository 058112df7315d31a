package standing

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// workload generates a randomized but deterministic ingest stream: each
// log consumes random existing artifacts, generates fresh ones, and
// occasionally re-declares a generator for an existing artifact (the
// non-monotone hazard path).
type workload struct {
	rng  *rand.Rand
	pool []string
	step int
	// selfContained skips cross-log references (uses, generator
	// replacement), so logs can ingest in any order — for tests that write
	// concurrently.
	selfContained bool
}

func (w *workload) next() *provenance.RunLog {
	i := w.step
	w.step++
	runID := fmt.Sprintf("run-%03d", i)
	execID := fmt.Sprintf("exec-%03d", i)
	l := &provenance.RunLog{
		Run: provenance.Run{ID: runID, WorkflowID: "wf", Agent: fmt.Sprintf("agent-%d", i%3), Status: provenance.StatusOK},
		Executions: []*provenance.Execution{{
			ID: execID, RunID: runID,
			ModuleID:   fmt.Sprintf("mod-%d", i%5),
			ModuleType: [...]string{"shell", "python", "spark"}[i%3],
			Status:     provenance.StatusOK,
		}},
	}
	seq := uint64(0)
	declared := map[string]bool{}
	event := func(kind provenance.EventKind, art string) {
		// Every referenced artifact must be declared in the log that
		// mentions it (cross-run re-declaration is the normal idiom).
		if !declared[art] {
			declared[art] = true
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art, RunID: runID, Type: "blob"})
		}
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: kind, ExecutionID: execID, ArtifactID: art})
		seq++
	}
	for k := 0; k < 2 && len(w.pool) > 0 && !w.selfContained; k++ {
		if w.rng.Intn(2) == 0 {
			event(provenance.EventArtifactUsed, w.pool[w.rng.Intn(len(w.pool))])
		}
	}
	for k, n := 0, 1+w.rng.Intn(2); k < n; k++ {
		art := fmt.Sprintf("art-%03d-%d", i, k)
		event(provenance.EventArtifactGen, art)
		w.pool = append(w.pool, art)
	}
	if len(w.pool) > 2 && w.rng.Intn(100) < 15 && !w.selfContained {
		// Generator replacement: re-generate an already-existing artifact.
		event(provenance.EventArtifactGen, w.pool[w.rng.Intn(len(w.pool))])
	}
	return l
}

// --- reference re-query, implemented independently of the manager -------------

func requery(t *testing.T, st store.Store, spec Spec) []string {
	t.Helper()
	switch spec.Kind {
	case KindClosure:
		order, err := st.Closure(spec.Root, spec.Dir)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return nil
			}
			t.Fatalf("closure re-query: %v", err)
		}
		sort.Strings(order)
		return order
	case KindTriple:
		set := map[string]struct{}{}
		err := st.ScanLogs(0, func(l *provenance.RunLog) error {
			for _, tr := range store.TriplesOf(l) {
				if matchTriple(spec.Pattern, tr) {
					set[TripleItem(tr)] = struct{}{}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("triple re-query: %v", err)
		}
		return sortedSet(set)
	case KindConjunctive:
		p := datalog.NewProgram()
		if err := datalog.LoadStore(p, st); err != nil {
			t.Fatalf("conj re-query load: %v", err)
		}
		head := "q(" + strings.Join(spec.Output, ", ") + ")"
		r, err := datalog.ParseRule(head + " :- " + spec.Query)
		if err != nil {
			t.Fatalf("conj re-query parse: %v", err)
		}
		if err := p.AddRule(r); err != nil {
			t.Fatalf("conj re-query rule: %v", err)
		}
		goal, err := datalog.ParseAtom(head)
		if err != nil {
			t.Fatalf("conj re-query goal: %v", err)
		}
		res, err := p.Query(goal)
		if err != nil {
			t.Fatalf("conj re-query: %v", err)
		}
		set := map[string]struct{}{}
		for _, row := range res.Rows {
			set[strings.Join(row, " ")] = struct{}{}
		}
		return sortedSet(set)
	}
	t.Fatalf("unknown kind %q", spec.Kind)
	return nil
}

func sortedSet(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// tracker reconstructs a subscription's result purely from its snapshot
// and delivered events — exactly what a remote consumer holds.
type tracker struct {
	id    string
	spec  Spec
	state map[string]struct{}
	seq   uint64
}

func newTracker(t *testing.T, m *Manager, spec Spec) *tracker {
	t.Helper()
	snap, err := m.Subscribe(spec)
	if err != nil {
		t.Fatalf("subscribe %+v: %v", spec, err)
	}
	tr := &tracker{id: snap.ID, spec: spec, state: map[string]struct{}{}, seq: snap.Seq}
	for _, it := range snap.Items {
		tr.state[it] = struct{}{}
	}
	return tr
}

func (tr *tracker) sync(t *testing.T, m *Manager) {
	t.Helper()
	evs, ok := m.EventsSince(tr.id, tr.seq)
	if !ok {
		t.Fatalf("sub %s vanished", tr.id)
	}
	tr.apply(t, evs)
}

func (tr *tracker) apply(t *testing.T, evs []Event) {
	t.Helper()
	for _, ev := range evs {
		switch ev.Type {
		case EventAdd:
			for _, it := range ev.Items {
				if _, dup := tr.state[it]; dup {
					t.Fatalf("sub %s: duplicate add of %q at seq %d", tr.id, it, ev.Seq)
				}
				tr.state[it] = struct{}{}
			}
		case EventRemove:
			for _, it := range ev.Items {
				if _, have := tr.state[it]; !have {
					t.Fatalf("sub %s: remove of absent %q at seq %d", tr.id, it, ev.Seq)
				}
				delete(tr.state, it)
			}
		case EventSnapshot:
			tr.state = map[string]struct{}{}
			for _, it := range ev.Items {
				tr.state[it] = struct{}{}
			}
		case EventGap:
			// the following snapshot event rebuilds the state
		default:
			t.Fatalf("sub %s: unknown event type %q", tr.id, ev.Type)
		}
		if ev.Seq < tr.seq {
			t.Fatalf("sub %s: sequence went backwards (%d after %d)", tr.id, ev.Seq, tr.seq)
		}
		tr.seq = ev.Seq
	}
}

func (tr *tracker) verify(t *testing.T, st store.Store, step int) {
	t.Helper()
	want := requery(t, st, tr.spec)
	got := sortedSet(tr.state)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d, sub %s (%s): incremental state diverged from re-query\n got: %v\nwant: %v",
			step, tr.id, tr.spec.Kind, got, want)
	}
}

// --- the property: snapshot + accumulated deltas == fresh re-query ------------

func TestStandingPropertyMemStore(t *testing.T) {
	runStandingProperty(t, store.NewMemStore())
}

func TestStandingPropertySharded(t *testing.T) {
	runStandingProperty(t, shardedstore.NewMem(4))
}

func runStandingProperty(t *testing.T, st store.Store) {
	defer st.Close()
	m := NewManager(st, Options{ReplayRing: 4096})
	tap := NewTap(st, m)
	w := &workload{rng: rand.New(rand.NewSource(7))}

	// Seed a few logs so initial snapshots are non-trivial.
	for i := 0; i < 3; i++ {
		if err := tap.PutRunLog(w.next()); err != nil {
			t.Fatalf("seed ingest: %v", err)
		}
	}

	trackers := []*tracker{
		newTracker(t, m, Spec{Kind: KindClosure, Root: "art-000-0", Dir: store.Up}),
		newTracker(t, m, Spec{Kind: KindClosure, Root: "art-000-0", Dir: store.Down}),
		newTracker(t, m, Spec{Kind: KindClosure, Root: "exec-001", Dir: store.Down}),
		// Root that does not exist yet: attaches when it first appears.
		newTracker(t, m, Spec{Kind: KindClosure, Root: "art-010-0", Dir: store.Down}),
		// Root that never appears: must stay empty throughout.
		newTracker(t, m, Spec{Kind: KindClosure, Root: "art-nope", Dir: store.Up}),
		newTracker(t, m, Spec{Kind: KindTriple, Pattern: store.Triple{P: store.PredGenerated}}),
		newTracker(t, m, Spec{Kind: KindTriple, Pattern: store.Triple{S: "exec-002"}}),
		newTracker(t, m, Spec{Kind: KindTriple, Pattern: store.Triple{P: store.PredType, O: "Artifact"}}),
		newTracker(t, m, Spec{Kind: KindConjunctive, Query: "used(E, A), generated(E, B)", Output: []string{"A", "B"}}),
		newTracker(t, m, Spec{Kind: KindConjunctive, Query: "generated(E, A), partOfRun(E, R)", Output: []string{"A", "R"}}),
		// Duplicate of the first conjunctive spec: identical queries share
		// one delta evaluation, and both copies must stay equivalent.
		newTracker(t, m, Spec{Kind: KindConjunctive, Query: "used(E, A), generated(E, B)", Output: []string{"A", "B"}}),
	}

	for step := 0; step < 60; step++ {
		if err := tap.PutRunLog(w.next()); err != nil {
			t.Fatalf("step %d ingest: %v", step, err)
		}
		switch step {
		case 12: // mid-stream registrations see a populated store
			trackers = append(trackers,
				newTracker(t, m, Spec{Kind: KindClosure, Root: "art-005-0", Dir: store.Up}),
				newTracker(t, m, Spec{Kind: KindConjunctive, Query: "generated(E, A), moduleType(E, 'spark')", Output: []string{"A"}}),
				newTracker(t, m, Spec{Kind: KindTriple}), // full wildcard
			)
		case 30: // mid-stream unsubscribe
			last := trackers[len(trackers)-1]
			if !m.Unsubscribe(last.id) {
				t.Fatalf("unsubscribe %s reported missing", last.id)
			}
			if _, ok := m.EventsSince(last.id, 0); ok {
				t.Fatalf("events after unsubscribe should report missing")
			}
			trackers = trackers[:len(trackers)-1]
		}
		for _, tr := range trackers {
			tr.sync(t, m)
			tr.verify(t, st, step)
		}
	}

	// Manager bookkeeping matches.
	infos := m.List()
	if len(infos) != len(trackers) {
		t.Fatalf("List: got %d subs, want %d", len(infos), len(trackers))
	}
	for _, tr := range trackers {
		snap, ok := m.Snapshot(tr.id)
		if !ok {
			t.Fatalf("Snapshot(%s) missing", tr.id)
		}
		if !reflect.DeepEqual(snap.Items, sortedSet(tr.state)) {
			t.Fatalf("Snapshot(%s) disagrees with reconstructed state", tr.id)
		}
	}
}

// --- slow consumers: bounded, gap-marked, never blocking ----------------------

// A stalled consumer costs one replay ring; it resumes via an explicit gap
// event plus a fresh snapshot, while concurrent ingest and a live consumer
// proceed untouched. Run under -race this also exercises the locking.
func TestStandingSlowConsumerBounded(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	const ring = 4
	m := NewManager(st, Options{ReplayRing: ring})
	tap := NewTap(st, m)

	spec := Spec{Kind: KindTriple, Pattern: store.Triple{P: store.PredGenerated}}
	stalled := newTracker(t, m, spec)
	fast := newTracker(t, m, spec)

	writersDone := make(chan struct{})
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			evs, ok := m.EventsSince(fast.id, fast.seq)
			if !ok {
				return
			}
			fast.apply(t, evs)
			ch, ok := m.Changed(fast.id, fast.seq)
			if !ok {
				return
			}
			if ch == nil {
				continue // events already pending
			}
			select {
			case <-ch:
			case <-writersDone:
				if evs, ok := m.EventsSince(fast.id, fast.seq); ok {
					fast.apply(t, evs)
				}
				return
			}
		}
	}()

	var writers sync.WaitGroup
	w := &workload{rng: rand.New(rand.NewSource(11)), selfContained: true}
	logs := make([]*provenance.RunLog, 0, 100)
	for i := 0; i < 100; i++ {
		logs = append(logs, w.next())
	}
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i < len(logs); i += 4 {
				if err := tap.PutRunLog(logs[i]); err != nil {
					t.Errorf("ingest: %v", err)
				}
			}
		}(g)
	}
	writers.Wait()
	close(writersDone)
	consumer.Wait()

	want := requery(t, st, spec)

	// The live consumer converged (possibly via gap+snapshot if it briefly
	// fell behind the tiny ring — either way, exactly the re-query result).
	fast.sync(t, m)
	if got := sortedSet(fast.state); !reflect.DeepEqual(got, want) {
		t.Fatalf("fast consumer diverged:\n got: %v\nwant: %v", got, want)
	}

	// The stalled consumer is bounded: its ring holds at most `ring`
	// events, and resuming from its ancient cursor yields gap + snapshot.
	evs, ok := m.EventsSince(stalled.id, stalled.seq)
	if !ok {
		t.Fatalf("stalled sub vanished")
	}
	if len(evs) != 2 || evs[0].Type != EventGap || evs[1].Type != EventSnapshot {
		t.Fatalf("stalled consumer: want [gap snapshot], got %+v", evs)
	}
	if evs[0].Seq != evs[1].Seq {
		t.Fatalf("gap and snapshot must share a sequence, got %d vs %d", evs[0].Seq, evs[1].Seq)
	}
	stalled.apply(t, evs)
	if got := sortedSet(stalled.state); !reflect.DeepEqual(got, want) {
		t.Fatalf("stalled consumer re-snapshot diverged:\n got: %v\nwant: %v", got, want)
	}
	// Resuming from the snapshot's sequence is lossless: nothing pending.
	if evs, _ := m.EventsSince(stalled.id, stalled.seq); len(evs) != 0 {
		t.Fatalf("post-resnapshot resume should be empty, got %+v", evs)
	}
}

// --- unit coverage ------------------------------------------------------------

func TestStandingSubscribeValidation(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	m := NewManager(st, Options{})
	cases := []Spec{
		{Kind: "nope"},
		{Kind: KindClosure}, // missing root
		{Kind: KindConjunctive},
		{Kind: KindConjunctive, Query: "unknownPred(X)"},
		{Kind: KindConjunctive, Query: "used(E)"},                           // arity
		{Kind: KindConjunctive, Query: "used(E, A)", Output: []string{"Z"}}, // unbound output
		{Kind: KindConjunctive, Query: "used('e1', 'a1')"},                  // no variables
	}
	for _, spec := range cases {
		if _, err := m.Subscribe(spec); err == nil {
			t.Errorf("Subscribe(%+v): want error", spec)
		}
	}
	if infos := m.List(); len(infos) != 0 {
		t.Fatalf("failed subscribes must not register: %+v", infos)
	}
}

func TestStandingChangedWakeup(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	m := NewManager(st, Options{})
	tap := NewTap(st, m)
	tr := newTracker(t, m, Spec{Kind: KindTriple, Pattern: store.Triple{P: store.PredGenerated}})

	ch, ok := m.Changed(tr.id, tr.seq)
	if !ok || ch == nil {
		t.Fatalf("Changed on idle sub: want channel, got ch=%v ok=%v", ch, ok)
	}
	w := &workload{rng: rand.New(rand.NewSource(3))}
	if err := tap.PutRunLog(w.next()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatalf("publish did not close the notify channel")
	}
	// Events pending now: Changed reports them via a nil channel.
	if ch2, ok := m.Changed(tr.id, tr.seq); !ok || ch2 != nil {
		t.Fatalf("Changed with pending events: want nil channel, ok; got %v %v", ch2, ok)
	}
	tr.sync(t, m)
	tr.verify(t, st, 0)

	// Unsubscribe wakes waiters too.
	ch3, _ := m.Changed(tr.id, tr.seq)
	m.Unsubscribe(tr.id)
	select {
	case <-ch3:
	default:
		t.Fatalf("unsubscribe did not close the notify channel")
	}
}
