package closurecache

// Tests of the reverse index's bookkeeping: postings built at the first
// ingest, tombstoned eviction, the sweep bound, the lazily built member set,
// and what a hit, a miss and a patch are allowed to cost.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// countingStore counts the traversal calls that reach the backend.
type countingStore struct {
	store.Store
	closures, expands atomic.Int64
}

func (s *countingStore) Closure(seed string, dir store.Direction) ([]string, error) {
	s.closures.Add(1)
	return s.Store.Closure(seed, dir)
}

func (s *countingStore) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	s.expands.Add(1)
	return s.Store.Expand(ids, dir)
}

// checkIndex recomputes the reverse index's counters from its contents:
// posted entries are counted in the postings, and every live entry not yet
// posted waits in the pending list, which stays within its bound.
func checkIndex(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	live, waiting := 0, 0
	for k, e := range c.idx.entries {
		if e.dead || e.Key != k {
			t.Fatalf("closures[%v] holds entry %v (dead=%v)", k, e.Key, e.dead)
		}
		if e.posted {
			live += 1 + len(e.order)
		} else {
			waiting++
		}
	}
	pending := 0
	for _, e := range c.idx.pending {
		if e.posted {
			t.Fatalf("posted entry %v still pending", e.Key)
		}
		if !e.dead {
			pending++
		}
	}
	if pending != waiting || len(c.idx.pending) > 2*len(c.idx.entries)+16 {
		t.Fatalf("pending list: %d entries, %d of them live; %d live entries unposted of %d",
			len(c.idx.pending), pending, waiting, len(c.idx.entries))
	}
	held, heldLive := 0, 0
	for h, ps := range c.idx.postings {
		if ps != nil && len(ps) == 0 {
			t.Fatalf("empty postings list kept for %s", c.idx.ids[h])
		}
		held += len(ps)
		for _, e := range ps {
			if !e.dead {
				heldLive++
			}
		}
	}
	if live != c.idx.nLive || heldLive != c.idx.nLive || held != c.idx.nPostings {
		t.Fatalf("index counters: nLive=%d nPostings=%d; entries hold %d members, postings hold %d (%d live)",
			c.idx.nLive, c.idx.nPostings, live, held, heldLive)
	}
}

func artID(i int) string { return fmt.Sprintf("c-art-%04d", i) }

// allocsPerCall is testing.AllocsPerRun with metric recording switched on
// or off for the measurement.
func allocsPerCall(obsOn bool, runs int, op func()) float64 {
	defer obs.SetEnabled(obs.SetEnabled(obsOn))
	return testing.AllocsPerRun(runs, op)
}

// TestHitTouchesNothing: a hit is one map probe and one copy — no backend
// call, one allocation, with metric recording on or off — whatever a cold
// closure costs.
func TestHitTouchesNothing(t *testing.T) {
	l, _, tail := chainLog(128)
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backend := &countingStore{Store: fs}
	c := Wrap(backend)
	defer c.Close()
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	want, err := c.Closure(tail, store.Up)
	if err != nil || len(want) != 256 {
		t.Fatalf("cold closure: %d entities, %v", len(want), err)
	}
	calls := backend.closures.Load() + backend.expands.Load()
	var got []string
	hit := func() { got, _ = c.Closure(tail, store.Up) }
	allocs, allocsObsOff := allocsPerCall(true, 200, hit), allocsPerCall(false, 200, hit)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hit returned %d entities, cold %d", len(got), len(want))
	}
	if n := backend.closures.Load() + backend.expands.Load() - calls; n != 0 {
		t.Fatalf("hits made %d backend calls", n)
	}
	if allocs > 1 {
		t.Fatalf("a hit allocates %v objects, want ≤ 1 (the caller's copy)", allocs)
	}
	if allocs != allocsObsOff {
		t.Fatalf("a hit allocates %v objects with metrics on, %v with them off", allocs, allocsObsOff)
	}
	if e := c.idx.entries[Key{tail, store.Up}]; e.set != nil {
		t.Fatal("reads built a member set; only a patch needs one")
	}
}

// TestPatchTouchesOnlyAttachedEntries: an ingest attaching to chain A
// extends exactly the cached closures that contain its attachment point —
// one Expand per BFS level each — and leaves every other entry, and its
// unbuilt member set, alone.
func TestPatchTouchesOnlyAttachedEntries(t *testing.T) {
	backend := &countingStore{Store: store.NewMemStore()}
	c := Wrap(backend)
	if err := c.PutRunLog(extRun("a-1", "a-0", "a-1-out", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutRunLog(extRun("a-2", "a-1-out", "a-2-out", "")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutRunLog(extRun("b-1", "b-0", "b-1-out", "")); err != nil {
		t.Fatal(err)
	}
	attached := []Key{{"a-0", store.Down}, {"a-1-out", store.Down}, {"a-2-out", store.Down}}
	others := []Key{{"b-0", store.Down}, {"b-1-out", store.Up}, {"a-2-out", store.Up}, {"a-0", store.Up}}
	for _, k := range append(append([]Key{}, attached...), others...) {
		if _, err := c.Closure(k.ID, k.Dir); err != nil {
			t.Fatal(err)
		}
	}
	before := map[Key][]int32{}
	for _, k := range others {
		before[k] = c.idx.entries[k].order
	}
	patched, expands := c.Metrics().Patched, backend.expands.Load()

	// a-2-out -> a-3-exec -> a-3-out: two new entities below the A chain.
	if err := c.PutRunLog(extRun("a-3", "a-2-out", "a-3-out", "")); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Patched - patched; got != uint64(len(attached)) {
		t.Fatalf("ingest patched %d entries, want the %d holding a-2-out", got, len(attached))
	}
	// Each patch walks a-2-out, a-3-exec, a-3-out: three levels.
	if got := backend.expands.Load() - expands; got != int64(3*len(attached)) {
		t.Fatalf("patching made %d Expand calls, want %d", got, 3*len(attached))
	}
	for _, k := range others {
		e := c.idx.entries[k]
		if e.set != nil || len(e.order) != len(before[k]) || (len(e.order) > 0 && &e.order[0] != &before[k][0]) {
			t.Fatalf("entry %v was touched by an ingest that does not reach it", k)
		}
	}
	for _, k := range attached {
		got, _ := c.Closure(k.ID, k.Dir)
		want, _ := store.NaiveClosure(backend.Store, k.ID, k.Dir)
		if !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("patched %v = %v, want %v", k, got, want)
		}
	}
	checkIndex(t, c)
}

// TestReadmittedKeyPatchedOnce: after an evict-and-readmit the reverse
// index holds the key twice at every member — a tombstone and the live
// entry. An ingest must patch the live one, once.
func TestReadmittedKeyPatchedOnce(t *testing.T) {
	l, head, tail := chainLog(32)
	mem := store.NewMemStore()
	c := Wrap(mem)
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	k := Key{head, store.Down}
	if _, err := c.Closure(tail, store.Up); err != nil { // a second live entry over the same members
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // admit, evict, readmit, evict, readmit
		if _, err := c.Closure(k.ID, k.Dir); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			c.mu.Lock()
			c.evictLocked(c.idx.entries[k])
			c.mu.Unlock()
		}
	}
	dead := 0
	for _, e := range c.idx.pending {
		if e.Key == k && e.dead {
			dead++
		}
	}
	if dead != 2 || c.idx.nPostings != 0 {
		t.Fatalf("expected two dead generations of %v waiting and nothing posted: %d dead, nPostings=%d", k, dead, c.idx.nPostings)
	}
	checkIndex(t, c)

	patched := c.Metrics().Patched
	if err := c.PutRunLog(extRun("ext", tail, "ext-out", "")); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Patched - patched; got != 1 {
		t.Fatalf("ingest patched %d entries, want 1 (the live %v)", got, k)
	}
	got, _ := c.Closure(k.ID, k.Dir)
	want, _ := mem.Closure(k.ID, k.Dir)
	if len(got) != len(want) || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
		t.Fatalf("readmitted closure after the patch has %d entities (%v), cold has %d", len(got), got, len(want))
	}
	checkIndex(t, c)
}

// TestTombstonesOnlyOverEvict: an artifact whose only postings are
// tombstones is still in the reverse index, so an ingest re-generating it
// walks the hazard rule over that list — which must find nothing live to
// evict there and leave every cached answer equal to a cold one.
func TestTombstonesOnlyOverEvict(t *testing.T) {
	mem := store.NewMemStore()
	c := Wrap(mem)
	for _, l := range []string{"a", "b"} {
		if err := c.PutRunLog(extRun(l+"-1", l+"-0", l+"-1-out", "")); err != nil {
			t.Fatal(err)
		}
	}
	keep := Key{"b-1-out", store.Up}
	for _, k := range []Key{{"a-1-out", store.Up}, keep} {
		if _, err := c.Closure(k.ID, k.Dir); err != nil {
			t.Fatal(err)
		}
	}
	// An unrelated ingest posts both entries, so the eviction leaves
	// tombstones behind.
	if err := c.PutRunLog(extRun("c-1", "c-0", "c-1-out", "")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.evictLocked(c.idx.entries[Key{"a-1-out", store.Up}])
	c.mu.Unlock()
	// A different execution re-generates a-1-out: a generator replacement
	// on an artifact the index only remembers through a dead entry.
	if err := c.PutRunLog(extRun("a-2", "a-0", "a-2-out", "a-1-out")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.idx.entries[keep]; !ok {
		t.Fatalf("hazard on a tombstone evicted the unrelated live entry %v", keep)
	}
	for _, k := range []Key{{"a-1-out", store.Up}, keep, {"a-0", store.Down}} {
		got, err := c.Closure(k.ID, k.Dir)
		want, _ := mem.Closure(k.ID, k.Dir)
		if err != nil || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("Closure%v = %v, %v; cold %v", k, got, err, want)
		}
	}
	checkIndex(t, c)
}

// TestPostingsBoundedUnderChurn runs 200 000 admissions through a cache at
// capacity — every key read twice, so the second miss admits and evicts —
// and holds the reverse index to its bound throughout: postings held never
// exceed twice the live ones, on the index's own counters, which checkIndex
// ties to its contents.
func TestPostingsBoundedUnderChurn(t *testing.T) {
	l, _, _ := chainLog(16)
	mem := store.NewMemStore()
	c := New(mem, Options{MaxClosures: 8})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	const cycles = 200_000
	for i := 0; i < 2*cycles; i++ {
		// 34 keys against 8 slots; the stride keeps a key from returning
		// before it has been evicted.
		n := (i / 2 * 7) % 34
		if _, err := c.Closure(artID(n/2), dirOf(n)); err != nil {
			t.Fatal(err)
		}
		if c.idx.nPostings > 2*c.idx.nLive {
			t.Fatalf("cycle %d: %d postings held for %d live", i, c.idx.nPostings, c.idx.nLive)
		}
		if i%20_000 == 0 {
			checkIndex(t, c)
		}
	}
	checkIndex(t, c)
	if m := c.Metrics(); m.ClosureEntries != 8 || m.Evicted < cycles/2 {
		t.Fatalf("the workload did not churn: %+v", m)
	}
}

// sliceStore answers every Closure with the same slice, so a miss through
// it allocates only what the cache itself allocates.
type sliceStore struct {
	store.Store
	order []string
}

func (s *sliceStore) Closure(string, store.Direction) ([]string, error) { return s.order, nil }

// TestMissAllocations: admitting a closure of n members — a full cache's
// second miss on a key — costs the entry, its copy of the order and whatever
// postings lists happen to grow — not a set entry, an index entry and a map
// per member, which was three allocations-or-inserts per member before and
// after. A first miss at capacity, which the doorkeeper refuses, allocates
// nothing. Metric recording adds nothing to either.
func TestMissAllocations(t *testing.T) {
	const n, capacity, runs = 256, 512, 200
	order := make([]string, n)
	for i := range order {
		order[i] = artID(i)
	}
	keys := make([]Key, 4*capacity)
	for i := range keys {
		keys[i] = Key{fmt.Sprintf("seed-%d", i), store.Up}
	}
	// Each arm replays the same misses on a fresh cache, so the two counts
	// differ only by what recording costs. The window (capacity first
	// misses) is wider than either measurement, so no mark is forgotten
	// between a key's two misses.
	missAllocs := func(obsOn bool) (admit, refuse float64) {
		c := New(&sliceStore{order: order}, Options{MaxClosures: capacity})
		read := func(k Key) {
			if _, err := c.Closure(k.ID, k.Dir); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range keys[:capacity] { // below capacity: admitted on the first miss
			read(k)
		}
		marked := unmarkedKeys(c, keys[capacity:2*capacity], runs+1)
		for _, k := range marked {
			read(k)
		}
		before := c.Metrics()
		next := 0
		admit = allocsPerCall(obsOn, runs, func() { read(marked[next]); next++ })
		if m := c.Metrics(); m.Evicted-before.Evicted != runs+1 || m.Refused != before.Refused {
			t.Fatalf("second misses: %d evicted, %d refused; want %d admitted", m.Evicted-before.Evicted, m.Refused-before.Refused, runs+1)
		}
		fresh, next := unmarkedKeys(c, keys[2*capacity:], runs+1), 0
		refuse = allocsPerCall(obsOn, runs, func() { read(fresh[next]); next++ })
		if m := c.Metrics(); m.Refused-before.Refused != runs+1 || m.ClosureEntries != capacity {
			t.Fatalf("first misses at capacity: %d refused of %d, %d entries", m.Refused-before.Refused, runs+1, m.ClosureEntries)
		}
		checkIndex(t, c)
		return admit, refuse
	}
	allocs, refused := missAllocs(true)
	allocsObsOff, refusedObsOff := missAllocs(false)
	// The entry, its order, the seed's own postings list; a list of the
	// shared members doubling now and then.
	if allocs > 12 {
		t.Fatalf("an admitting miss of %d members allocates %v objects, want a constant (≤ 12)", n, allocs)
	}
	if refused != 0 {
		t.Fatalf("a refused miss allocates %v objects, want 0", refused)
	}
	if allocs != allocsObsOff || refused != refusedObsOff {
		t.Fatalf("an admitting miss allocates %v objects with metrics on, %v with them off; a refused one %v and %v",
			allocs, allocsObsOff, refused, refusedObsOff)
	}
}

// TestReadOnlyCacheBuildsNoIndex: a cache nothing is ingested through posts
// no member — 10 000 admissions churning a 64-entry cache (each seed read
// twice, so its second miss admits) leave the reverse index empty, and the
// list of entries waiting for the first ingest within its bound.
func TestReadOnlyCacheBuildsNoIndex(t *testing.T) {
	order := make([]string, 32)
	for i := range order {
		order[i] = artID(i)
	}
	c := New(&sliceStore{order: order}, Options{MaxClosures: 64})
	for i := 0; i < 2*10_000; i++ {
		if _, err := c.Closure(fmt.Sprintf("seed-%d", i/2), store.Up); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.idx.postings) != 0 || c.idx.nPostings != 0 {
		t.Fatalf("read-only cache built a reverse index: %d lists, %d postings", len(c.idx.postings), c.idx.nPostings)
	}
	if m := c.Metrics(); m.ClosureEntries != 64 || m.Evicted < 10_000-64 {
		t.Fatalf("the workload did not churn: %+v", m)
	}
	checkIndex(t, c)
}

// TestFirstIngestIndexesResidentEntries: entries admitted while nothing was
// ingested — some evicted before the ingest arrives — are posted by the
// first ingest and patched or evicted by it exactly as with postings made at
// admission: a twin cache whose index is posted after every admission ends
// each step with the same entries, members and counters, and both answer
// every cached key as NaiveClosure does.
func TestFirstIngestIndexesResidentEntries(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		rng := rand.New(rand.NewSource(seed))
		b := &dagBuilder{}
		lazy, eager := store.NewMemStore(), store.NewMemStore()
		// Room for every admission: a victim chosen at capacity is arbitrary.
		lc, ec := New(lazy, Options{MaxClosures: 1 << 10}), New(eager, Options{MaxClosures: 1 << 10})
		var entities []string
		for step := 0; step < 10; step++ {
			l := b.buildLog(rng, step, 4)
			for _, c := range []*Cache{lc, ec} {
				if err := c.PutRunLog(l); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range l.Artifacts {
				entities = append(entities, a.ID)
			}
			for _, x := range l.Executions {
				entities = append(entities, x.ID)
			}
			for q := 0; q < 12; q++ {
				k := Key{entities[rng.Intn(len(entities))], store.Direction(rng.Intn(2))}
				for _, c := range []*Cache{lc, ec} {
					if _, err := c.Closure(k.ID, k.Dir); err != nil {
						t.Fatal(err)
					}
				}
				ec.idx.postPending()
				if q%5 == 4 { // evict the same key from both while lazy's is still unposted
					for _, c := range []*Cache{lc, ec} {
						if e := c.idx.entries[k]; e != nil {
							c.evictLocked(e)
						}
					}
				}
			}
			checkIndex(t, lc)
		}
		// One more ingest posts lazy's last admissions; then compare.
		l := b.buildLog(rng, 10, 2)
		for _, c := range []*Cache{lc, ec} {
			if err := c.PutRunLog(l); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, c)
		}
		lm, em := lc.Metrics(), ec.Metrics()
		if lm.Patched != em.Patched || lm.Evicted != em.Evicted || lm.ClosureEntries != em.ClosureEntries {
			t.Fatalf("seed %d: lazy index %+v, eager %+v", seed, lm, em)
		}
		if em.Patched == 0 {
			t.Fatalf("seed %d: no ingest patched a cached closure: %+v", seed, em)
		}
		if lc.idx.nLive != ec.idx.nLive {
			t.Fatalf("seed %d: lazy index holds %d live postings, eager %d", seed, lc.idx.nLive, ec.idx.nLive)
		}
		for k, e := range ec.idx.entries {
			le := lc.idx.entries[k]
			if le == nil {
				t.Fatalf("seed %d: %v indexed eagerly only", seed, k)
			}
			got := sortedCopy(lc.idx.Members(le))
			if eager := sortedCopy(ec.idx.Members(e)); !reflect.DeepEqual(got, eager) {
				t.Fatalf("seed %d: %v lazily indexed = %v, eagerly %v", seed, k, got, eager)
			}
			want, _ := store.NaiveClosure(lazy, k.ID, k.Dir)
			if !reflect.DeepEqual(got, sortedCopy(want)) {
				t.Fatalf("seed %d: cached %v = %v, naive %v", seed, k, got, sortedCopy(want))
			}
		}
	}
}

// TestHandleSetMatchesMap: the member set answers as a map does through
// its growth, over dense runs, strided handles (which share low bits) and
// random ones, and stays at most half full.
func TestHandleSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, next := range map[string]func(i int) int32{
		"dense":   func(i int) int32 { return int32(i % 3000) },
		"strided": func(i int) int32 { return int32(i%2000) * 1024 },
		"random":  func(int) int32 { return rng.Int31n(1 << 20) },
	} {
		var s handleSet
		want := map[int32]bool{}
		for i := 0; i < 5000; i++ {
			h := next(i)
			if added := s.add(h); added == want[h] {
				t.Fatalf("%s: add(%d) = %v after %d handles, map says present=%v", name, h, added, len(want), want[h])
			}
			want[h] = true
			if s.n != len(want) || 2*s.n > len(s.slots) {
				t.Fatalf("%s: %d handles in %d slots, the map holds %d", name, s.n, len(s.slots), len(want))
			}
		}
	}
}
