// Package closurecache maintains transitive closures incrementally across
// ingests: a Cache wraps any store.Store, memoizes Closure results, and
// patches — rather than discards — the affected cached closures when
// PutRunLog adds new edges, following the FO+MOD queries-under-updates
// direction (Berkholz et al.) the ROADMAP names.
//
// # Invalidation strategy
//
// Provenance graphs are insert-mostly DAGs: a new run log introduces fresh
// executions and artifacts, and its edges attach to existing entities only
// where the log re-declares a shared artifact (a content-addressed input
// produced by an earlier run). The cache exploits that monotonicity:
//
//   - A reverse index (Index, shared with standing-query closure
//     subscriptions) maps each entity to the cached closures (root,
//     direction) containing it, so an ingest inspects only the entries its
//     delta edges actually touch — per-root dependency tracking, not a
//     cache-wide scan.
//   - Each new edge (src -> dst in some direction) whose src lies inside a
//     cached closure extends that closure with a bounded BFS from src over
//     the post-ingest graph, appending only newly reachable nodes. Entries
//     the delta does not touch stay warm, byte-for-byte untouched.
//   - The one non-monotone case is a generator replacement: a log that
//     re-declares an existing artifact as generated by a different
//     execution rewrites (on the mem and file backends) the artifact's
//     upstream edge instead of adding one. There is one hazard rule, the
//     same on a primary, on a follower and in snapshot replay, and it
//     never asks the store what the generator used to be: any generation
//     event naming a member of a cached upstream closure evicts that
//     closure (Index.Apply reports it suspect); everything else is
//     patched. Fresh artifacts are members of nothing, so the common
//     all-new-IDs ingest pays nothing, and two concurrent declarers racing
//     for the same artifact can over-evict but never leave the losing edge
//     cached.
//   - A generation counter, bumped once per ingest, keeps concurrent
//     readers safe: a closure computed from the backend while an ingest was
//     in flight is returned to the caller but never inserted into the
//     cache, so no entry can miss a patch it raced with.
//
// Expand is the backing store's own: every backend already answers a
// one-hop neighbourhood from a resident, handle-addressed adjacency list,
// so a memo of it would only copy that index and could lag it.
//
// # One ingest path
//
// PutRunLog commits to the backing store and then applies the delta;
// ApplyDelta is the second half alone, for run logs someone else committed
// (a follower's replication applier). The cache lock is never held across
// the backing store's commit — and so never across an fsync — so readers
// keep hitting while a commit is in flight and concurrent ingests reach the
// store's group-commit WAL together.
//
// # Bookkeeping cost
//
// Berkholz et al. get constant update time from structures addressed in
// O(1) per element, and the bookkeeping here is held to the same budget: a
// miss-heavy read workload admits and evicts whole closures continuously,
// so every per-member step of that cycle is work no query asked for.
//
//   - Entries hold handles into the Index's dictionary of entity IDs, not
//     the IDs: admission copies the closure once as 4-byte handles, with at
//     most one dictionary probe per member (none while the members come in
//     the order they were first interned, as a re-admitted closure's do),
//     and a hit turns the handles back into IDs in the caller's copy. The
//     dictionary only grows while the Index lives, by the distinct IDs of
//     the backing store at most, and the snapshot file is the same
//     dictionary plus handle columns.
//   - The reverse index is a postings slice per entity (pointers to the
//     entries holding it), addressed by handle and built at the first
//     ingest after an entry's admission: only a delta reads it, so a
//     read-only cache never builds an index or sweeps one. The ingest posts
//     each waiting entry with one append per member and no hashing; a
//     delta's edge sources are looked up once each, by ID.
//   - Eviction is O(1): the entry is marked dead and its postings stay
//     behind as tombstones, which every reader of the index skips. When
//     tombstones outnumber live postings one sweep drops them all, so the
//     index settles at no more than twice its live postings and the
//     sweep's cost is already paid for by the evictions that caused it.
//   - An entry's member set (of handles) exists only to dedup a patch's
//     BFS against the closure; it is built from the order slice by the
//     first patch that reaches the entry. A read-only workload never builds
//     one.
//   - A full cache admits a key only on its second miss: the first miss
//     at capacity sets the key's bit in a doorkeeper bitset (TinyLFU,
//     Einziger–Friedman–Manes) and returns the backend's answer without
//     taking the write lock, interning a member or evicting an entry; a
//     miss that finds the bit set is admitted. The bitset is cleared after
//     about MaxClosures first marks, so a working set many times the cache
//     whose keys rarely recur pays one atomic OR per miss, not a whole
//     admit-and-evict cycle. Below capacity every miss is admitted.
//
// # Ordering
//
// A cache hit returns the closure in its cached order: the original BFS
// order extended with each patch's newly reached nodes in discovery order.
// That is set-equal to a cold Closure on the current graph (the conformance
// property tests assert it against store.NaiveClosure) but not necessarily
// the same sequence a fresh BFS would produce; callers that need a
// canonical order sort, as the Datalog pushdown already does.
package closurecache

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
)

// Cache observability: process-wide mirrors of the per-instance Metrics
// counters (the hit ratio is the headline cache health signal) plus the
// ingest-patch latency only the global registry tracks.
var (
	mCacheClosureHits   = obs.Default().Counter("prov_cache_closure_hits_total", "Closure queries answered from the cache.")
	mCacheClosureMisses = obs.Default().Counter("prov_cache_closure_misses_total", "Closure queries recomputed on the backing store.")
	mCacheEvictions     = obs.Default().Counter("prov_cache_evictions_total", "Memoized closures evicted: capacity (a miss admitted at MaxClosures), generator-replacement hazards, patch errors.")
	mCacheRefused       = obs.Default().Counter("prov_cache_admissions_refused_total", "Closure misses not memoized: a key's first miss while the cache is full.")
	mCachePatchSecs     = obs.Default().Histogram("prov_cache_patch_seconds", "Per-ingest delta patch latency (hazard eviction + additive patching).")
)

// Options tunes a Cache. The zero value picks sensible defaults.
type Options struct {
	// MaxClosures bounds the number of memoized closures (default 4096).
	// Below it every miss is admitted. At it a key is admitted only on its
	// second miss — the first one is answered and remembered in a
	// doorkeeper that forgets after about MaxClosures such misses — and an
	// arbitrary entry is evicted to make room.
	MaxClosures int
	// SnapshotDir, when set, persists the memoized closures and the
	// generation counter to a checkpoint file in this directory (next to
	// a file-backed store's log): New restores the snapshot — replaying
	// any runs ingested after it was taken — and Checkpoint writes a
	// fresh one, so a reopened store serves warm closures immediately.
	SnapshotDir string
	// CheckpointEvery, when positive, calls Checkpoint automatically
	// after every N ingests accepted through the cache.
	CheckpointEvery int
}

func (o Options) withDefaults() Options {
	if o.MaxClosures <= 0 {
		o.MaxClosures = 4096
	}
	return o
}

// Metrics is a snapshot of cache activity since creation.
type Metrics struct {
	ClosureHits    uint64 // Closure served from cache
	ClosureMisses  uint64 // Closure computed by the backend
	Ingests        uint64 // run logs applied (PutRunLog and ApplyDelta)
	Patched        uint64 // cached closures extended in place by an ingest
	Evicted        uint64 // cached closures dropped (hazard, capacity, error)
	Refused        uint64 // Closure misses not admitted (a first miss at capacity)
	Restored       uint64 // closures restored from a persisted snapshot
	Batched        uint64 // deltas applied under another ingest's lock acquisition
	Generation     uint64 // ingests observed (the invalidation clock)
	ClosureEntries int    // currently cached closures
}

// Cache wraps a Store with incrementally maintained closure memoization.
// It implements store.Store — every method it does not memoize or patch,
// Expand among them, is the embedded backing store's, so it stays a drop-in
// replacement in tables and logs — and is safe for concurrent readers with
// writers (delta applies serialize on the cache's lock).
type Cache struct {
	store.Store // the backing store
	opt         Options

	// ingestGate brackets every ingest from store commit through delta
	// apply (readers), so a snapshot (writer) can quiesce the window in
	// which a run is committed to the backing store but its delta is not
	// yet folded into the memoized state — PutRunLog commits without
	// holding mu, so mu alone cannot exclude that window.
	// Lock order: ingestGate before mu.
	ingestGate sync.RWMutex

	mu         sync.RWMutex
	generation uint64
	idx        *Index // memoized closures and their reverse index

	door *doorkeeper // keys that missed once at capacity; lock-free

	// pending queues committed-but-unapplied deltas; whichever ingester
	// holds mu drains the whole queue, so concurrent ingests fold into one
	// lock acquisition instead of serializing per-delta (see enqueueDelta).
	// Lock order: pendMu is a leaf — taken with or without mu, never
	// around it.
	pendMu  sync.Mutex
	pending []*provenance.RunLog

	// applied is the run prefix a snapshot may claim; nil without a
	// SnapshotDir. Lock order: a leaf, taken under mu.
	applied *appliedRuns

	closureHits, closureMisses atomic.Uint64
	ingests, patched, evicted  atomic.Uint64
	restored, batched, refused atomic.Uint64
	autoCkpt                   *store.AutoCheckpoint
}

var _ store.Store = (*Cache)(nil)

// New wraps s. The cache starts cold unless Options.SnapshotDir names a
// directory holding a snapshot of a previous process's closures, in which
// case the snapshot is restored (and any runs it missed are replayed
// through the delta-patching path) before the cache serves its first
// query.
func New(s store.Store, opt Options) *Cache {
	opt = opt.withDefaults()
	c := &Cache{
		Store:    s,
		opt:      opt,
		idx:      NewIndex(),
		door:     newDoorkeeper(opt.MaxClosures),
		autoCkpt: store.NewAutoCheckpoint(opt.CheckpointEvery),
	}
	if c.opt.SnapshotDir != "" {
		c.applied = &appliedRuns{beyond: map[string]struct{}{}}
		c.loadSnapshot()
	}
	return c
}

// Wrap is New with default options.
func Wrap(s store.Store) *Cache { return New(s, Options{}) }

// Underlying returns the wrapped store.
func (c *Cache) Underlying() store.Store { return c.Store }

// Metrics snapshots cache activity.
func (c *Cache) Metrics() Metrics {
	c.mu.RLock()
	entries := c.idx.Len()
	gen := c.generation
	c.mu.RUnlock()
	return Metrics{
		ClosureHits:    c.closureHits.Load(),
		ClosureMisses:  c.closureMisses.Load(),
		Ingests:        c.ingests.Load(),
		Patched:        c.patched.Load(),
		Evicted:        c.evicted.Load(),
		Refused:        c.refused.Load(),
		Restored:       c.restored.Load(),
		Batched:        c.batched.Load(),
		Generation:     gen,
		ClosureEntries: entries,
	}
}

// flushLocked drops every memoized closure and bumps the generation, so
// in-flight computations cannot repopulate the cache with pre-flush state.
func (c *Cache) flushLocked() {
	c.generation++
	c.idx = NewIndex()
}

// --- Store: ingest with incremental patching ---------------------------------

// PutRunLog implements Store: it commits the log to the backing store, then
// patches every memoized closure the log's edges touch instead of flushing
// the cache. The commit runs WITHOUT the cache lock, whatever the log
// declares: readers keep hitting across the store's fsync, and concurrent
// ingests reach its group-commit WAL together and coalesce into shared
// batches; only the post-commit delta patch takes the write lock.
//
// The ingest gate is held (shared) from store commit through delta apply,
// so a snapshot can quiesce the committed-but-unapplied window; see
// saveSnapshot. Readers do not wait on it: in that window a cached closure
// can lack the run while the backing store already serves it, so a PQL
// query (which scans the store) can see a run that a cached lineage does
// not, until PutRunLog returns. ROADMAP direction 1 step 2's ordered
// ingest hook is what would close the window.
func (c *Cache) PutRunLog(l *provenance.RunLog) error {
	c.ingestGate.RLock()
	err := c.Store.PutRunLog(l)
	if err == nil {
		c.enqueueDelta(l)
	}
	c.ingestGate.RUnlock()
	if err != nil {
		return err
	}
	c.autoCkpt.Tick(c.Checkpoint)
	return nil
}

// ApplyDelta patches the cache for a run log that was committed to the
// backing store by someone other than this cache's PutRunLog — the
// replication applier, which folds shipped WAL batches directly into the
// underlying store. It is PutRunLog without the store commit: the same
// generation bump and hazard rule, under the same ingest gate, so memoized
// closures on a follower stay exactly as fresh as they would under local
// ingest.
func (c *Cache) ApplyDelta(l *provenance.RunLog) {
	c.ingestGate.RLock()
	c.enqueueDelta(l)
	c.ingestGate.RUnlock()
	c.autoCkpt.Tick(c.Checkpoint)
}

// enqueueDelta queues one committed log and guarantees its delta is folded
// into the memoized state before returning. The queue is what batches
// writer concurrency: the ingester that holds mu drains every queued delta
// in that single critical section, so N concurrent ingests racing for the
// lock apply as one acquisition's worth of work — the latecomers find
// their delta already applied and their own mu acquisition is an empty
// no-op. Callers hold the ingest gate (shared) across enqueue + drain, so a
// snapshot quiescing the gate (saveSnapshot) still observes a fully drained
// queue.
func (c *Cache) enqueueDelta(l *provenance.RunLog) {
	c.pendMu.Lock()
	c.pending = append(c.pending, l)
	c.pendMu.Unlock()
	c.mu.Lock()
	c.drainPendingLocked()
	c.mu.Unlock()
}

// drainPendingLocked applies every queued delta, re-checking the queue
// until it stays empty (deltas enqueued while a batch applied are drained
// by the same holder).
func (c *Cache) drainPendingLocked() {
	for {
		c.pendMu.Lock()
		batch := c.pending
		c.pending = nil
		c.pendMu.Unlock()
		if len(batch) == 0 {
			return
		}
		if len(batch) > 1 {
			c.batched.Add(uint64(len(batch) - 1))
		}
		for _, l := range batch {
			c.generation++
			c.ingests.Add(1)
			c.applyDeltaLocked(l)
			if c.applied != nil {
				c.applied.mark(l.Run.ID)
			}
		}
	}
}

// applyDeltaLocked folds one committed run log into the memoized closures
// through the shared index: extended where the delta attaches, evicted
// where it reports them suspect.
func (c *Cache) applyDeltaLocked(l *provenance.RunLog) {
	start := obs.Now()
	defer mCachePatchSecs.ObserveSince(start)
	for _, ch := range c.idx.Apply(DeltaOf(l), c.Store.Expand) {
		if ch.Suspect {
			c.evictLocked(ch.Entry)
		} else {
			c.patched.Add(1)
		}
	}
	c.idx.Sweep()
}

// evictLocked drops one closure entry (see Index.Evict: O(1), safe while
// ranging over the index; callers Sweep once they are done).
func (c *Cache) evictLocked(e *Entry) {
	if e.dead {
		return
	}
	c.idx.Evict(e)
	c.evicted.Add(1)
	mCacheEvictions.Inc()
}

// --- Store: memoized reads ---------------------------------------------------

// Closure implements Store. Hits return the cached (patched) closure; a
// miss computes through the backend and memoizes the result only if no
// ingest intervened, so a racing reader can never cache a pre-patch view.
// A miss while the cache is full is memoized only if the doorkeeper already
// holds the key; otherwise it marks the key and returns without the write
// lock.
func (c *Cache) Closure(seed string, dir store.Direction) ([]string, error) {
	k := Key{seed, dir}
	c.mu.RLock()
	if e := c.idx.Lookup(k); e != nil {
		out := c.idx.Members(e)
		c.mu.RUnlock()
		c.closureHits.Add(1)
		mCacheClosureHits.Inc()
		return out, nil
	}
	gen, full := c.generation, c.idx.Len() >= c.opt.MaxClosures
	c.mu.RUnlock()
	c.closureMisses.Add(1)
	mCacheClosureMisses.Inc()

	order, err := c.Store.Closure(seed, dir)
	if err != nil {
		return nil, err
	}
	if full && !c.door.seen(k) {
		c.refused.Add(1)
		mCacheRefused.Inc()
		return order, nil
	}
	c.mu.Lock()
	if c.generation == gen && c.idx.Lookup(k) == nil {
		c.admitClosureLocked(k, order)
	}
	c.mu.Unlock()
	return order, nil
}

// admitClosureLocked inserts a freshly computed closure under a key not
// cached, evicting an arbitrary entry when at capacity. The index keeps its
// own copy of order (the caller's goes back to the client).
func (c *Cache) admitClosureLocked(k Key, order []string) {
	if c.idx.Len() >= c.opt.MaxClosures {
		for _, victim := range c.idx.entries {
			c.evictLocked(victim)
			break
		}
		c.idx.Sweep()
	}
	c.idx.Admit(k, order)
}

// doorkeeper remembers which keys missed while the cache was full: one bit
// per key hash in a fixed bitset, set and read with atomic operations so a
// refused miss takes no lock. Every window first marks the bitset is
// cleared, so a key must miss twice within about window first misses of
// other keys to be admitted. A hash collision only admits a key on its
// first miss, as a cache without a doorkeeper would.
type doorkeeper struct {
	words  []atomic.Uint64
	mask   uint64 // bit count - 1
	window uint64
	marks  atomic.Uint64 // first marks since creation
}

// newDoorkeeper sizes the bitset at 16 bits per cached closure (at least
// one word), so a window of capacity marks fills at most 1/16 of it.
func newDoorkeeper(capacity int) *doorkeeper {
	n := 64
	for n < 16*capacity {
		n *= 2
	}
	return &doorkeeper{words: make([]atomic.Uint64, n/64), mask: uint64(n - 1), window: uint64(capacity)}
}

// seen marks k and reports whether it was marked already.
func (d *doorkeeper) seen(k Key) bool {
	h := keyHash(k) & d.mask
	w, bit := &d.words[h>>6], uint64(1)<<(h&63)
	if w.Load()&bit != 0 {
		return true
	}
	if d.marks.Add(1)%d.window == 0 {
		for i := range d.words {
			d.words[i].Store(0)
		}
	}
	return w.Or(bit)&bit != 0
}

// keyHash is FNV-1a over the key's ID and direction, folded so the low
// bits that address the bitset depend on every input byte.
func keyHash(k Key) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.ID); i++ {
		h = (h ^ uint64(k.ID[i])) * prime
	}
	h = (h ^ uint64(k.Dir)) * prime
	return h ^ h>>32
}

// Close implements Store, draining any in-flight auto-checkpoint before
// closing the wrapped store (whose own Close drains its trigger too).
func (c *Cache) Close() error {
	c.autoCkpt.Drain()
	return c.Store.Close()
}
