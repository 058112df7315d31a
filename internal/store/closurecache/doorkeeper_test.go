package closurecache

// Tests of the admission rule: below capacity every miss is admitted; at
// capacity a key's first miss only marks it in the doorkeeper, and a miss
// that finds the mark admits.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
)

// unmarkedKeys returns the first n of keys, in order, whose doorkeeper bits
// are clear and differ from each other's, so each one's first miss at
// capacity is refused however the hash places it.
func unmarkedKeys(c *Cache, keys []Key, n int) []Key {
	var out []Key
	taken := map[uint64]bool{}
	for _, k := range keys {
		if len(out) == n {
			break
		}
		b := keyHash(k) & c.door.mask
		if taken[b] || c.door.words[b>>6].Load()&(1<<(b&63)) != 0 {
			continue
		}
		taken[b] = true
		out = append(out, k)
	}
	if len(out) < n {
		panic("not enough keys with distinct clear doorkeeper bits")
	}
	return out
}

// chainKeys is every (entity, direction) key of a chainLog(depth).
func chainKeys(depth int) []Key {
	var keys []Key
	for i := 0; i <= depth; i++ {
		keys = append(keys, Key{artID(i), store.Up}, Key{artID(i), store.Down})
	}
	return keys
}

// TestDoorkeeperAdmission walks the admission rule on a 4-entry cache:
// first misses admit until it is full; then a first miss returns while the
// test holds the read lock — so it took no write lock — and changes no
// entry, dictionary, pending list or eviction count; the key's second miss
// admits it and evicts exactly one entry; and once about MaxClosures other
// first misses have cleared the doorkeeper, the key needs two misses again.
func TestDoorkeeperAdmission(t *testing.T) {
	const capacity = 4
	l, _, _ := chainLog(16)
	mem := store.NewMemStore()
	c := New(mem, Options{MaxClosures: capacity})
	if err := c.PutRunLog(l); err != nil {
		t.Fatal(err)
	}
	read := func(k Key) {
		t.Helper()
		got, err := c.Closure(k.ID, k.Dir)
		want, _ := store.NaiveClosure(mem, k.ID, k.Dir)
		if err != nil || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("Closure%v = %v, %v; want %v", k, got, err, want)
		}
	}
	keys := chainKeys(16)
	for i, k := range keys[:capacity] {
		read(k)
		if m := c.Metrics(); m.ClosureEntries != i+1 || m.Refused != 0 {
			t.Fatalf("first miss %d below capacity was not admitted: %+v", i+1, m)
		}
	}
	fresh := unmarkedKeys(c, keys[capacity:], 2+capacity)
	k, other, clearers := fresh[0], fresh[1], fresh[2:]

	c.mu.RLock()
	entries := map[Key]*Entry{}
	for ek, e := range c.idx.entries {
		entries[ek] = e
	}
	ids, pending := len(c.idx.ids), len(c.idx.pending)
	done := make(chan error, 1)
	go func() {
		_, err := c.Closure(k.ID, k.Dir)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a first miss at capacity waited for the write lock")
	}
	if !reflect.DeepEqual(c.idx.entries, entries) || len(c.idx.ids) != ids || len(c.idx.pending) != pending {
		t.Fatalf("a refused miss changed the index: %d entries, %d IDs (had %d), %d pending (had %d)",
			len(c.idx.entries), len(c.idx.ids), ids, len(c.idx.pending), pending)
	}
	c.mu.RUnlock()
	if m := c.Metrics(); m.Refused != 1 || m.Evicted != 0 || m.ClosureEntries != capacity {
		t.Fatalf("after a refused miss: %+v", m)
	}

	read(k)
	if m := c.Metrics(); m.Refused != 1 || m.Evicted != 1 || m.ClosureEntries != capacity || c.idx.Lookup(k) == nil {
		t.Fatalf("a second miss did not admit %v in place of exactly one entry: %+v", k, m)
	}
	read(k)
	if m := c.Metrics(); m.ClosureHits != 1 {
		t.Fatalf("the admitted key did not hit: %+v", m)
	}

	// Mark other, then let capacity further first marks pass: one of them
	// completes a window and clears the doorkeeper.
	read(other)
	for _, ck := range clearers {
		read(ck)
	}
	refused := c.Metrics().Refused
	if refused != 2+capacity {
		t.Fatalf("%d refused misses, want %d", refused, 2+capacity)
	}
	read(other)
	if m := c.Metrics(); m.Refused != refused+1 || c.idx.Lookup(other) != nil {
		t.Fatalf("%v was admitted on its first miss after the window cleared: %+v", other, m)
	}
	read(other)
	if m := c.Metrics(); m.Refused != refused+1 || c.idx.Lookup(other) == nil {
		t.Fatalf("%v was not admitted on its second miss: %+v", other, m)
	}
	checkIndex(t, c)
}

// TestDoorkeeperConcurrentChurn: 4 readers draw uniformly from 9 ×
// MaxClosures keys while ingests grow the graph under them, so the cache
// refuses, admits, evicts and patches at once (the race detector checks the
// locking). No ingest replaces a generator, so a closure only grows: every
// answer must hold NaiveClosure from before the read and lie within
// NaiveClosure from after it — set-equal to it whenever no ingest moved it
// meanwhile. "Before" is read from a second store that receives each run
// only once the cache's PutRunLog has returned: until then the run is
// committed to the backing store but may not be applied to the cache yet,
// and a read may answer from either side of it. Once the ingests stop,
// every key must read set-equal to NaiveClosure, and the cache never holds
// more than MaxClosures closures.
func TestDoorkeeperConcurrentChurn(t *testing.T) {
	const capacity, readers, readsEach = 16, 4, 1500
	rng := rand.New(rand.NewSource(9))
	b := &dagBuilder{}
	mem, applied := store.NewMemStore(), store.NewMemStore()
	c := New(mem, Options{MaxClosures: capacity})
	ingest := func(l *provenance.RunLog) {
		if err := c.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if err := applied.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	var entities []string
	run := 0
	for len(entities) < 9*capacity/2 {
		l := b.buildLog(rng, run, 0)
		run++
		ingest(l)
		for _, x := range l.Executions {
			entities = append(entities, x.ID)
		}
	}
	entities = append(entities, b.arts...)
	var keys []Key
	for _, id := range entities[:9*capacity/2] {
		keys = append(keys, Key{id, store.Up}, Key{id, store.Down})
	}
	var logs []*provenance.RunLog
	for i := 0; i < 40; i++ {
		logs = append(logs, b.buildLog(rng, run+i, 0))
	}

	// Every 100 reads a reader offers the ingester a turn; the buffer holds
	// one turn per log, so no reader blocks on it.
	var reads atomic.Int64
	turns := make(chan struct{}, len(logs))
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < readsEach; i++ {
				k := keys[rng.Intn(len(keys))]
				before, err := store.NaiveClosure(applied, k.ID, k.Dir)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := c.Closure(k.ID, k.Dir)
				if err != nil {
					t.Errorf("Closure%v: %v", k, err)
					return
				}
				after, _ := store.NaiveClosure(mem, k.ID, k.Dir)
				if !subset(before, got) || !subset(got, after) {
					t.Errorf("Closure%v = %v; NaiveClosure went %v -> %v across the read", k, sortedCopy(got), sortedCopy(before), sortedCopy(after))
					return
				}
				if i%64 == 0 {
					if m := c.Metrics(); m.ClosureEntries > capacity {
						t.Errorf("%d closures cached, MaxClosures is %d", m.ClosureEntries, capacity)
						return
					}
				}
				if reads.Add(1)%100 == 0 {
					select {
					case turns <- struct{}{}:
					default:
					}
				}
			}
		}(r)
	}
	readersDone := make(chan struct{})
	go func() { wg.Wait(); close(readersDone) }()
	for _, l := range logs {
		select {
		case <-turns:
		case <-readersDone:
		}
		ingest(l)
	}
	<-readersDone
	if t.Failed() {
		return
	}
	for _, k := range keys {
		for i := 0; i < 2; i++ {
			got, err := c.Closure(k.ID, k.Dir)
			want, _ := store.NaiveClosure(mem, k.ID, k.Dir)
			if err != nil || !reflect.DeepEqual(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("settled Closure%v = %v, %v; want %v", k, got, err, want)
			}
		}
	}
	if m := c.Metrics(); m.ClosureEntries > capacity || m.Refused == 0 || m.Evicted == 0 {
		t.Fatalf("the readers did not churn a full cache: %+v", m)
	}
	checkIndex(t, c)
}

// subset reports whether every ID of a is in b.
func subset(a, b []string) bool {
	in := make(map[string]bool, len(b))
	for _, id := range b {
		in[id] = true
	}
	for _, id := range a {
		if !in[id] {
			return false
		}
	}
	return true
}

// BenchmarkClosureCacheChurn reads uniformly over 9 × MaxClosures keys
// (the default capacity) of a MemStore holding chains of 8 runs, from
// parallel goroutines: the shape of a lineage workload whose working set
// dwarfs the cache, where most misses are a key's first in a long while.
// ns/op, B/op and allocs/op are per closure read; hit_ratio and refused/op
// say how the cache spent them. The timed reads start from a full cache.
func BenchmarkClosureCacheChurn(b *testing.B) {
	const capacity, depth = 4096, 8
	mem := store.NewMemStore()
	var keys []Key
	for chain := 0; len(keys) < 9*capacity; chain++ {
		art := func(i int) string { return fmt.Sprintf("ch%04d-art-%d", chain, i) }
		for i := 0; i < depth; i++ {
			id := fmt.Sprintf("ch%04d-run-%d", chain, i)
			if err := mem.PutRunLog(extRun(id, art(i), art(i+1), "")); err != nil {
				b.Fatal(err)
			}
			keys = append(keys, Key{art(i), store.Up}, Key{art(i), store.Down}, Key{id + "-exec", store.Up}, Key{id + "-exec", store.Down})
		}
	}
	keys = keys[:9*capacity]
	c := New(mem, Options{MaxClosures: capacity})
	for _, k := range keys {
		if _, err := c.Closure(k.ID, k.Dir); err != nil {
			b.Fatal(err)
		}
	}
	before := c.Metrics()
	var seeds atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seeds.Add(1)))
		for pb.Next() {
			k := keys[rng.Intn(len(keys))]
			if _, err := c.Closure(k.ID, k.Dir); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	m := c.Metrics()
	b.ReportMetric(float64(m.ClosureHits-before.ClosureHits)/float64(b.N), "hit_ratio")
	b.ReportMetric(float64(m.Refused-before.Refused)/float64(b.N), "refused/op")
}
