package replica

// Tests of the one delta path from a committed run to the state derived
// from it: the closure cache and standing closure subscriptions, fed by
// PutRunLog on a primary and by a follower's observers on a replica, must
// both equal the per-edge reference closure after every ingest.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
)

// edgeRun builds a run from explicit edges: uses and gens are (execution,
// artifact) pairs. Every entity an edge names is declared in the log; an ID
// appearing on both sides of the pairs is stored as both kinds.
func edgeRun(id string, uses, gens [][2]string) *provenance.RunLog {
	l := &provenance.RunLog{Run: provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}}
	execs, arts := map[string]bool{}, map[string]bool{}
	add := func(kind provenance.EventKind, pairs [][2]string) {
		for _, p := range pairs {
			if !execs[p[0]] {
				execs[p[0]] = true
				l.Executions = append(l.Executions, &provenance.Execution{ID: p[0], RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK})
			}
			if !arts[p[1]] {
				arts[p[1]] = true
				l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: p[1], RunID: id, Type: "blob"})
			}
			l.Events = append(l.Events, provenance.Event{Seq: uint64(len(l.Events) + 1), RunID: id, Kind: kind, ExecutionID: p[0], ArtifactID: p[1]})
		}
	}
	add(provenance.EventArtifactUsed, uses)
	add(provenance.EventArtifactGen, gens)
	return l
}

// derivedWorkload is the ingest stream of the differential: a chain, a
// fan-in and a diamond that grow run by run (so warm closures are patched),
// then the non-monotone cases — an artifact's generator re-declared by the
// same execution and replaced by a different one — an ID stored as an
// artifact and, later, also as an execution, and growth below all of it.
func derivedWorkload() []*provenance.RunLog {
	p := func(pairs ...[2]string) [][2]string { return pairs }
	return []*provenance.RunLog{
		// chain: c0 -> ce1 -> c1 -> ce2 -> c2 -> ce3 -> c3
		edgeRun("chain-1", p([2]string{"ce1", "c0"}), p([2]string{"ce1", "c1"})),
		edgeRun("chain-2", p([2]string{"ce2", "c1"}), p([2]string{"ce2", "c2"})),
		edgeRun("chain-3", p([2]string{"ce3", "c2"}), p([2]string{"ce3", "c3"})),
		// fan-in: three sources, one of them the chain's tail, into f-out
		edgeRun("fan-1", p([2]string{"fe1", "f-a"}), p([2]string{"fe1", "f-b"})),
		edgeRun("fan-2", p([2]string{"fe2", "f-b"}, [2]string{"fe2", "c3"}, [2]string{"fe2", "f-c"}), p([2]string{"fe2", "f-out"})),
		// diamond: d0 -> {de1 -> d1, de2 -> d2} -> de3 -> d3
		edgeRun("dia-1", p([2]string{"de1", "d0"}), p([2]string{"de1", "d1"})),
		edgeRun("dia-2", p([2]string{"de2", "d0"}), p([2]string{"de2", "d2"})),
		edgeRun("dia-3", p([2]string{"de3", "d1"}, [2]string{"de3", "d2"}), p([2]string{"de3", "d3"})),
		// c2 re-generated by the execution that already generates it
		edgeRun("regen-same", p([2]string{"ce2", "f-a"}), p([2]string{"ce2", "c2"})),
		// c2's generator replaced: its upstream is now d3's, not c1's
		edgeRun("regen-other", p([2]string{"xe1", "d3"}), p([2]string{"xe1", "c2"})),
		// "dual" is an artifact of the diamond's tail ...
		edgeRun("dual-art", p([2]string{"ue1", "d3"}), p([2]string{"ue1", "dual"})),
		// ... and then also an execution, consuming f-out and generating u-out
		edgeRun("dual-exec", p([2]string{"dual", "f-out"}), p([2]string{"dual", "u-out"})),
		// growth below everything above
		edgeRun("tail-1", p([2]string{"te1", "dual"}, [2]string{"te1", "u-out"}), p([2]string{"te1", "t1"})),
		edgeRun("tail-2", p([2]string{"te2", "t1"}), p([2]string{"te2", "t2"})),
	}
}

// derivedStack is a store with a closure cache and closure subscriptions
// over it, and what a remote consumer of each subscription would hold.
type derivedStack struct {
	name  string
	base  store.Store // the reference closure's oracle
	cache *closurecache.Cache
	mgr   *standing.Manager
	subs  map[closurecache.Key]*consumer
}

type consumer struct {
	id    string
	seq   uint64
	items map[string]bool
}

func newDerivedStack(t *testing.T, name string, base store.Store, cache *closurecache.Cache, mgr *standing.Manager, keys []closurecache.Key) *derivedStack {
	t.Helper()
	d := &derivedStack{name: name, base: base, cache: cache, mgr: mgr, subs: map[closurecache.Key]*consumer{}}
	for _, k := range keys {
		snap, err := mgr.Subscribe(standing.Spec{Kind: standing.KindClosure, Root: k.ID, Dir: k.Dir})
		if err != nil {
			t.Fatalf("%s: subscribe %v: %v", name, k, err)
		}
		c := &consumer{id: snap.ID, seq: snap.Seq, items: map[string]bool{}}
		for _, it := range snap.Items {
			c.items[it] = true
		}
		d.subs[k] = c
	}
	return d
}

// check holds the cache's answer and every subscription's accumulated
// snapshot + events to the reference closure, as sets.
func (d *derivedStack) check(t *testing.T, step string) {
	t.Helper()
	for k, c := range d.subs {
		want, werr := store.NaiveClosure(d.base, k.ID, k.Dir)
		if werr != nil && !errors.Is(werr, store.ErrNotFound) {
			t.Fatalf("%s after %s: reference closure %v: %v", d.name, step, k, werr)
		}
		want = sortedClone(want)

		got, gerr := d.cache.Closure(k.ID, k.Dir)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(sortedClone(got), want) {
			t.Fatalf("%s after %s: cache closure %v = %v, %v; reference %v, %v", d.name, step, k, sortedClone(got), gerr, want, werr)
		}

		evs, ok := d.mgr.EventsSince(c.id, c.seq)
		if !ok {
			t.Fatalf("%s: subscription %s vanished", d.name, c.id)
		}
		for _, ev := range evs {
			for _, it := range ev.Items {
				switch {
				case ev.Type == standing.EventAdd && !c.items[it]:
					c.items[it] = true
				case ev.Type == standing.EventRemove && c.items[it]:
					delete(c.items, it)
				default:
					t.Fatalf("%s after %s: subscription %v: %s of %q contradicts what was delivered before", d.name, step, k, ev.Type, it)
				}
			}
			c.seq = ev.Seq
		}
		held := make([]string, 0, len(c.items))
		for it := range c.items {
			held = append(held, it)
		}
		sort.Strings(held)
		if !reflect.DeepEqual(held, append([]string{}, want...)) {
			t.Fatalf("%s after %s: subscription %v holds %v; reference %v", d.name, step, k, held, want)
		}
	}
}

// TestDerivedClosuresMatchReference is the differential over the four
// stacks that exist: cache + subscriptions over a MemStore, a FileStore and
// a 4-shard file router, all fed by PutRunLog, and over a follower of that
// router, fed by its observers alone.
func TestDerivedClosuresMatchReference(t *testing.T) {
	logs := derivedWorkload()
	var keys []closurecache.Key
	seen := map[string]bool{}
	for _, l := range logs {
		for _, ev := range l.Events {
			for _, id := range []string{ev.ExecutionID, ev.ArtifactID} {
				if !seen[id] {
					seen[id] = true
					keys = append(keys, closurecache.Key{ID: id, Dir: store.Up}, closurecache.Key{ID: id, Dir: store.Down})
				}
			}
		}
	}

	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	router, err := shardedstore.OpenWith(t.TempDir(), 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var primaries []*derivedStack
	var taps []store.Store
	for name, base := range map[string]store.Store{"mem": store.NewMemStore(), "file": fs, "router": router} {
		t.Cleanup(func() { base.Close() })
		cache := closurecache.Wrap(base)
		mgr := standing.NewManager(cache, standing.Options{ReplayRing: 1 << 12})
		primaries = append(primaries, newDerivedStack(t, name, base, cache, mgr, keys))
		taps = append(taps, standing.NewTap(cache, mgr))
	}

	srv := servePrimary(t, router)
	f, err := Open(Options{Dir: t.TempDir(), Primary: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fcache := closurecache.Wrap(f.Store())
	f.Observe(fcache.ApplyDelta)
	fmgr := standing.NewManager(fcache, standing.Options{ReplayRing: 1 << 12})
	f.Observe(fmgr.ApplyDelta)
	follower := newDerivedStack(t, "follower", f.Store(), fcache, fmgr, keys)

	for _, l := range logs {
		for i, tap := range taps {
			if err := tap.PutRunLog(l); err != nil {
				t.Fatalf("%s: ingest %s: %v", primaries[i].name, l.Run.ID, err)
			}
			primaries[i].check(t, l.Run.ID)
		}
		if err := f.CatchUp(); err != nil {
			t.Fatal(err)
		}
		follower.check(t, l.Run.ID)
	}
	for _, d := range append(primaries, follower) {
		m := d.cache.Metrics()
		if m.ClosureHits == 0 || m.Patched == 0 || m.Evicted == 0 || m.Ingests != uint64(len(logs)) {
			t.Fatalf("%s: the workload did not exercise hit, patch and eviction on every ingest: %+v", d.name, m)
		}
	}
}

// TestObserversSeeEveryAppliedRun: every observer — registered before Start
// or after it — sees each run the follower applies once, one shard's runs
// in that shard's log order, and observers run in registration order.
func TestObserversSeeEveryAppliedRun(t *testing.T) {
	const shards, runs = 3, 60
	pr, err := shardedstore.OpenWith(t.TempDir(), shards, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	srv := servePrimary(t, pr)
	f, err := Open(Options{Dir: t.TempDir(), Primary: srv.URL, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var mu sync.Mutex
	saw := map[string][]string{} // observer -> run IDs in the order seen
	var calls []string           // observer names in call order
	observe := func(name string) func(*provenance.RunLog) {
		return func(l *provenance.RunLog) {
			mu.Lock()
			saw[name] = append(saw[name], l.Run.ID)
			calls = append(calls, name)
			mu.Unlock()
		}
	}
	f.Observe(observe("before"))
	f.Start()
	f.Observe(observe("after"))

	for i := 0; i < runs; i++ {
		if err := pr.PutRunLog(mkRun(fmt.Sprintf("o-run-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.CatchUp(); err != nil { // races the tailers; the per-shard lock orders them
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for i, name := range calls {
		if want := [2]string{"before", "after"}[i%2]; name != want {
			t.Fatalf("call %d went to observer %q, want %q: observers must run in registration order, run by run", i, name, want)
		}
	}
	shardOf := map[string]int{}
	for si := 0; si < shards; si++ {
		ids, err := pr.Shard(si).Runs()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			shardOf[id] = si
		}
	}
	for _, name := range []string{"before", "after"} {
		if len(saw[name]) != runs {
			t.Fatalf("observer %q saw %d runs, want %d", name, len(saw[name]), runs)
		}
		perShard := make([][]string, shards)
		for _, id := range saw[name] {
			si := shardOf[id]
			perShard[si] = append(perShard[si], id)
		}
		for si := range perShard {
			want, err := pr.Shard(si).Runs()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(perShard[si], want) {
				t.Fatalf("observer %q saw shard %d's runs as %v; the shard's log order is %v", name, si, perShard[si], want)
			}
		}
	}
}
