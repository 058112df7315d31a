// Package closurecache maintains transitive closures incrementally across
// ingests: a Cache wraps any store.Store, memoizes Closure and Expand
// results, and patches — rather than discards — the affected cached
// closures when PutRunLog adds new edges, following the FO+MOD
// queries-under-updates direction (Berkholz et al.) the ROADMAP names.
//
// # Invalidation strategy
//
// Provenance graphs are insert-mostly DAGs: a new run log introduces fresh
// executions and artifacts, and its edges attach to existing entities only
// where the log re-declares a shared artifact (a content-addressed input
// produced by an earlier run). The cache exploits that monotonicity:
//
//   - A reverse index maps each entity to the cached closures (root,
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
//     upstream edge instead of adding one. The cache detects this before
//     delegating the ingest (one GeneratorOf probe per cache-resident
//     re-generated artifact — normally zero) and evicts the upstream
//     entries containing that artifact; everything else is still patched.
//     Ingests classified additive re-check at apply time: any generation
//     event touching a cache-resident artifact conservatively evicts that
//     artifact's upstream entries, so two concurrent declarers racing for
//     the same previously generator-less artifact can over-evict but never
//     leave the losing edge cached.
//   - A generation counter, bumped once per ingest, keeps concurrent
//     readers safe: a closure computed from the backend while an ingest was
//     in flight is returned to the caller but never inserted into the
//     cache, so no entry can miss a patch it raced with.
//
// Memoized Expand frontiers (per-entity neighbor lists) and — on triple
// backends — MatchBatch pattern results are patched the same way: delta
// edges append to cached neighbor lists, and the ingest's new triples are
// matched against cached patterns (store.TriplesOf is the shared
// flattening), so the SPARQL-like engine's probes stay warm too.
//
// # Bookkeeping cost
//
// Berkholz et al. get constant update time from structures addressed in
// O(1) per element, and the bookkeeping here is held to the same budget: a
// miss-heavy read workload admits and evicts whole closures continuously,
// so every per-member step of that cycle is work no query asked for.
//
//   - The reverse index is a postings slice per entity (pointers to the
//     entries holding it). Admission is one append per member — one string
//     hash — and copies the closure once.
//   - Eviction is O(1): the entry is marked dead and its postings stay
//     behind as tombstones, which every reader of the index skips. When
//     tombstones outnumber live postings one sweep drops them all, so the
//     index settles at no more than twice its live postings and the
//     sweep's cost is already paid for by the evictions that caused it.
//   - An entry's member set exists only to dedup a patch's BFS against the
//     closure; it is built from the order slice by the first patch that
//     reaches the entry. A read-only workload never builds one.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
)

// Cache observability: process-wide mirrors of the per-instance Metrics
// counters (hit ratios are the headline cache health signal) plus the
// ingest-patch latency only the global registry tracks.
var (
	mCacheClosureHits   = obs.Default().Counter("prov_cache_closure_hits_total", "Closure queries answered from the cache.")
	mCacheClosureMisses = obs.Default().Counter("prov_cache_closure_misses_total", "Closure queries recomputed on the backing store.")
	mCacheExpandHits    = obs.Default().Counter("prov_cache_expand_hits_total", "Expand seeds answered from memoized neighbor lists.")
	mCacheExpandMisses  = obs.Default().Counter("prov_cache_expand_misses_total", "Expand seeds forwarded to the backing store.")
	mCacheEvictions     = obs.Default().Counter("prov_cache_evictions_total", "Memoized closures evicted: capacity (a miss admitted at MaxClosures), generator-replacement hazards, patch errors.")
	mCachePatchSecs     = obs.Default().Histogram("prov_cache_patch_seconds", "Per-ingest delta patch latency (hazard eviction + additive patching).")
)

// Options tunes a Cache. The zero value picks sensible defaults.
type Options struct {
	// MaxClosures bounds the number of memoized closures (default 4096).
	// At capacity an arbitrary entry is evicted to admit the new one.
	MaxClosures int
	// MaxNeighbors bounds memoized per-entity Expand frontiers (default
	// 65536 entries).
	MaxNeighbors int
	// MaxPatterns bounds memoized MatchBatch pattern results on triple
	// backends (default 4096).
	MaxPatterns int
	// SnapshotDir, when set, persists the memoized closures and the
	// generation counter to a checkpoint file in this directory (next to
	// a file-backed store's log): New restores the snapshot — replaying
	// any runs ingested after it was taken — and Checkpoint writes a
	// fresh one, so a reopened store serves warm closures immediately.
	SnapshotDir string
	// CheckpointEvery, when positive, calls Checkpoint automatically
	// after every N ingests accepted through the cache.
	CheckpointEvery int
	// CheckpointInterval, when positive, also calls Checkpoint at most
	// this long after an ingest dirties the cache — a wall-clock bound on
	// reopen replay for trickle-ingest daemons.
	CheckpointInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxClosures <= 0 {
		o.MaxClosures = 4096
	}
	if o.MaxNeighbors <= 0 {
		o.MaxNeighbors = 65536
	}
	if o.MaxPatterns <= 0 {
		o.MaxPatterns = 4096
	}
	return o
}

// Metrics is a snapshot of cache activity since creation.
type Metrics struct {
	ClosureHits    uint64 // Closure served from cache
	ClosureMisses  uint64 // Closure computed by the backend
	ExpandHits     uint64 // per-entity frontier lookups served from cache
	ExpandMisses   uint64 // per-entity frontier lookups sent to the backend
	PatternHits    uint64 // MatchBatch patterns served from cache
	PatternMisses  uint64 // MatchBatch patterns sent to the backend
	Ingests        uint64 // PutRunLog calls accepted
	Patched        uint64 // cached closures extended in place by an ingest
	Evicted        uint64 // cached closures dropped (hazard, capacity, error)
	Restored       uint64 // closures restored from a persisted snapshot
	Batched        uint64 // additive deltas applied under another ingest's lock acquisition
	Generation     uint64 // ingests observed (the invalidation clock)
	ClosureEntries int    // currently cached closures
}

// key addresses one memoized result: a closure rooted at an entity, or the
// neighbor frontier of an entity, in one direction.
type key struct {
	id  string
	dir store.Direction
}

// entry is one memoized closure. order is the cached visit order (BFS plus
// patch appendices). set indexes it for membership tests during patching
// and is nil until the first patch (see memberSet). An evicted entry is
// dead: unreachable through closures, skipped wherever the reverse index
// still points at it.
type entry struct {
	key   key
	order []string
	set   map[string]struct{}
	dead  bool
}

// memberSet returns the entry's membership index, building it from order
// on first use.
func (e *entry) memberSet() map[string]struct{} {
	if e.set == nil {
		e.set = make(map[string]struct{}, len(e.order))
		for _, n := range e.order {
			e.set[n] = struct{}{}
		}
	}
	return e.set
}

// tripleMatcher is the triple-pattern face of store.TripleStore; the cache
// forwards (and memoizes) it when the wrapped backend has one.
type tripleMatcher interface {
	Match(subj, pred, obj string) []store.Triple
	MatchBatch(patterns []store.Triple) [][]store.Triple
}

// Cache wraps a Store with incrementally maintained closure, frontier and
// triple-pattern memoization. It implements store.Store and is safe for
// concurrent readers with writers (writers serialize on the cache's lock).
type Cache struct {
	s   store.Store
	opt Options

	// ingestGate brackets every ingest from store commit through delta
	// apply (readers), so a snapshot (writer) can quiesce the window in
	// which a run is committed to the backing store but its delta is not
	// yet folded into the memoized state — the additive PutRunLog path
	// commits without holding mu, so mu alone cannot exclude that window.
	// Lock order: ingestGate before mu.
	ingestGate sync.RWMutex

	mu         sync.RWMutex
	generation uint64
	closures   map[key]*entry
	hot        map[key][]string // entity -> memoized Expand neighbors
	patterns   map[store.Triple][]store.Triple

	// Reverse index: entity -> entries whose closure contains it (roots
	// included), one posting per (entity, entry) membership. Postings of
	// evicted entries stay as tombstones until sweepLocked; nPostings
	// counts every posting held and nLive those of live entries.
	postings  map[string][]*entry
	nPostings int
	nLive     int

	// pending queues committed-but-unapplied additive deltas; whichever
	// ingester holds mu drains the whole queue, so concurrent additive
	// ingests fold into one lock acquisition instead of serializing
	// per-delta (see enqueueDelta). Lock order: pendMu is a leaf — taken
	// with or without mu, never around it.
	pendMu  sync.Mutex
	pending []*provenance.RunLog

	closureHits, closureMisses atomic.Uint64
	expandHits, expandMisses   atomic.Uint64
	patternHits, patternMisses atomic.Uint64
	ingests, patched, evicted  atomic.Uint64
	restored, batched          atomic.Uint64
	autoCkpt                   *store.AutoCheckpoint
}

var _ store.Store = (*Cache)(nil)
var _ store.Checkpointer = (*Cache)(nil)

// New wraps s. The cache starts cold unless Options.SnapshotDir names a
// directory holding a snapshot of a previous process's closures, in which
// case the snapshot is restored (and any runs it missed are replayed
// through the delta-patching path) before the cache serves its first
// query.
func New(s store.Store, opt Options) *Cache {
	c := &Cache{
		s:        s,
		opt:      opt.withDefaults(),
		closures: map[key]*entry{},
		postings: map[string][]*entry{},
		hot:      map[key][]string{},
		patterns: map[store.Triple][]store.Triple{},
		autoCkpt: store.NewAutoCheckpointPolicy(store.CheckpointPolicy{
			EveryRuns: opt.CheckpointEvery,
			Interval:  opt.CheckpointInterval,
		}),
	}
	if c.opt.SnapshotDir != "" {
		c.loadSnapshot()
	}
	return c
}

// Wrap is New with default options.
func Wrap(s store.Store) *Cache { return New(s, Options{}) }

// Underlying returns the wrapped store.
func (c *Cache) Underlying() store.Store { return c.s }

// Generation returns the number of ingests the cache has applied: the
// invalidation clock patches and insert-checks are ordered by.
func (c *Cache) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generation
}

// Metrics snapshots cache activity.
func (c *Cache) Metrics() Metrics {
	c.mu.RLock()
	entries := len(c.closures)
	gen := c.generation
	c.mu.RUnlock()
	return Metrics{
		ClosureHits:    c.closureHits.Load(),
		ClosureMisses:  c.closureMisses.Load(),
		ExpandHits:     c.expandHits.Load(),
		ExpandMisses:   c.expandMisses.Load(),
		PatternHits:    c.patternHits.Load(),
		PatternMisses:  c.patternMisses.Load(),
		Ingests:        c.ingests.Load(),
		Patched:        c.patched.Load(),
		Evicted:        c.evicted.Load(),
		Restored:       c.restored.Load(),
		Batched:        c.batched.Load(),
		Generation:     gen,
		ClosureEntries: entries,
	}
}

// Flush drops every memoized result and bumps the generation, so in-flight
// computations cannot repopulate the cache with pre-flush state.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
}

func (c *Cache) flushLocked() {
	c.generation++
	c.closures = map[key]*entry{}
	c.postings = map[string][]*entry{}
	c.nPostings, c.nLive = 0, 0
	c.hot = map[key][]string{}
	c.patterns = map[store.Triple][]store.Triple{}
}

// --- Store: ingest with incremental patching ---------------------------------

// PutRunLog implements Store: it delegates the ingest, then patches every
// memoized result the new log's edges touch instead of flushing the cache.
//
// Concurrency: the common all-additive ingest (no event re-declares an
// artifact's existing generator) delegates to the backing store WITHOUT
// holding the cache lock, so concurrent ingests reach the store's
// group-commit WAL together and coalesce into shared fsync batches; only
// the post-commit delta patch takes the write lock. A log that does
// replace an existing generator — the non-monotone case — takes the
// serialized path, where the pre-ingest hazard probe and the store commit
// are atomic. The additive classification itself is a lock-free probe, so
// two concurrent logs declaring a generator for the SAME previously
// generator-less artifact can both classify additive; the additive path
// therefore re-checks at apply time with the conservative hazard rule
// (every gen event touching a cache-resident artifact evicts that
// artifact's upstream entries), which costs zero probes for the common
// all-fresh-IDs ingest and over-evicts — never staleness — on the race.
//
// Both paths hold the ingest gate (shared) from store commit through
// delta apply, so a snapshot can quiesce the committed-but-unapplied
// window; see saveSnapshot.
func (c *Cache) PutRunLog(l *provenance.RunLog) error {
	c.ingestGate.RLock()
	defer c.ingestGate.RUnlock()
	if c.regeneratesExisting(l) {
		c.mu.Lock()
		c.drainPendingLocked()
		hazards := c.generatorHazardsLocked(l)
		if err := c.s.PutRunLog(l); err != nil {
			c.mu.Unlock()
			return err
		}
		c.generation++
		c.ingests.Add(1)
		c.applyDeltaLocked(l, hazards)
		c.mu.Unlock()
	} else {
		if err := c.s.PutRunLog(l); err != nil {
			return err
		}
		c.enqueueDelta(l)
	}
	c.autoCkpt.Tick(0, c.Checkpoint)
	return nil
}

// enqueueDelta queues one committed additive log and guarantees its delta
// is folded into the memoized state before returning. The queue is what
// batches writer concurrency: the ingester that holds mu drains every
// queued delta in that single critical section, so N concurrent additive
// ingests racing for the lock apply as one acquisition's worth of work —
// the latecomers find their delta already applied and their own mu
// acquisition is an empty no-op. Callers hold the ingest gate (shared)
// across enqueue + drain, so a snapshot quiescing the gate (saveSnapshot)
// still observes a fully drained queue.
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
// by the same holder). Hazards are the conservative resident-regen rule —
// the additive path's classification is lock-free, so the pre-ingest
// generator state is unknowable here.
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
			c.applyDeltaLocked(l, c.residentRegenHazardsLocked(l))
		}
	}
}

// ApplyDelta patches the cache for a run log that was committed to the
// backing store by someone other than this cache's PutRunLog — the
// replication applier, which folds shipped WAL batches directly into the
// underlying store. It is PutRunLog's additive patch path without the
// store commit: the same generation bump and conservative resident-regen
// hazard eviction, under the same ingest gate, so memoized closures on a
// follower stay exactly as fresh as they would under local ingest.
func (c *Cache) ApplyDelta(l *provenance.RunLog) {
	c.ingestGate.RLock()
	c.enqueueDelta(l)
	c.ingestGate.RUnlock()
	c.autoCkpt.Tick(0, c.Checkpoint)
}

// regeneratesExisting reports whether any gen event in the log targets an
// artifact that already has a generator edge in the store — the only
// ingests that can rewrite (rather than extend) the graph and therefore
// need the serialized hazard path. The probe hits the store's in-memory
// adjacency index, no disk.
func (c *Cache) regeneratesExisting(l *provenance.RunLog) bool {
	for _, ev := range l.Events {
		if ev.Kind != provenance.EventArtifactGen {
			continue
		}
		if _, err := c.s.GeneratorOf(ev.ArtifactID); err == nil {
			return true
		}
	}
	return false
}

// generatorHazardsLocked detects the non-monotone ingest case before the
// log is stored: artifacts the log re-declares as generated by a different
// execution than the store already records. Only cache-resident artifacts
// are probed, so the common all-fresh-IDs ingest costs zero backend calls.
func (c *Cache) generatorHazardsLocked(l *provenance.RunLog) map[string]bool {
	var hazards map[string]bool
	seen := map[string]bool{}
	for _, ev := range l.Events {
		if ev.Kind != provenance.EventArtifactGen || seen[ev.ArtifactID] {
			continue
		}
		seen[ev.ArtifactID] = true
		if !c.residentUpLocked(ev.ArtifactID) {
			continue
		}
		prev, err := c.s.GeneratorOf(ev.ArtifactID)
		if err == nil && prev != ev.ExecutionID {
			if hazards == nil {
				hazards = map[string]bool{}
			}
			hazards[ev.ArtifactID] = true
		}
	}
	return hazards
}

// residentUpLocked reports whether an artifact can hold memoized upstream
// state — membership in any cached closure (via the reverse index) or a
// memoized Up frontier. Both hazard detectors key on it: only a resident
// artifact can carry a stale generator edge worth evicting. Tombstones
// count as membership, which can only report a hazard that evicts nothing.
func (c *Cache) residentUpLocked(id string) bool {
	if len(c.postings[id]) > 0 {
		return true
	}
	_, ok := c.hot[key{id, store.Up}]
	return ok
}

// applyDeltaLocked folds one accepted run log into the memoized state:
// hazard evictions first, then additive patching of neighbor lists, cached
// closures and triple patterns.
func (c *Cache) applyDeltaLocked(l *provenance.RunLog, hazards map[string]bool) {
	start := obs.Now()
	defer mCachePatchSecs.ObserveSince(start)
	for art := range hazards {
		delete(c.hot, key{art, store.Up})
		// Evictions only mark entries, so the list is stable under the loop.
		for _, e := range c.postings[art] {
			if e.key.dir == store.Up {
				c.evictLocked(e) // a no-op on a tombstone
			}
		}
	}

	// Delta adjacency introduced by this log, per direction.
	delta := map[store.Direction]map[string][]string{
		store.Up:   {},
		store.Down: {},
	}
	for _, ev := range l.Events {
		switch ev.Kind {
		case provenance.EventArtifactGen:
			delta[store.Up][ev.ArtifactID] = append(delta[store.Up][ev.ArtifactID], ev.ExecutionID)
			delta[store.Down][ev.ExecutionID] = append(delta[store.Down][ev.ExecutionID], ev.ArtifactID)
		case provenance.EventArtifactUsed:
			delta[store.Up][ev.ExecutionID] = append(delta[store.Up][ev.ExecutionID], ev.ArtifactID)
			delta[store.Down][ev.ArtifactID] = append(delta[store.Down][ev.ArtifactID], ev.ExecutionID)
		}
	}

	for dir, edges := range delta {
		// Memoized frontiers: append the new neighbors in place.
		for src, targets := range edges {
			k := key{src, dir}
			if ns, ok := c.hot[k]; ok {
				c.hot[k] = mergeSorted(ns, targets)
			}
		}
		// Memoized closures: collect attachment points per touched entry,
		// then extend each with one bounded BFS over the post-ingest graph.
		work := map[*entry][]string{}
		for src := range edges {
			for _, e := range c.postings[src] {
				if !e.dead && e.key.dir == dir {
					work[e] = append(work[e], src)
				}
			}
		}
		for e, sources := range work {
			c.extendLocked(e, sources)
		}
	}

	c.patchPatternsLocked(l)
	c.sweepLocked()
}

// extendLocked grows one cached closure from the attachment points a delta
// touched: a BFS over the current graph that only walks past nodes the
// entry has not seen. On a backend error the entry is evicted instead.
func (c *Cache) extendLocked(e *entry, sources []string) {
	set := e.memberSet()
	grew := false
	frontier := sources
	for len(frontier) > 0 {
		adj, err := c.s.Expand(frontier, e.key.dir)
		if err != nil {
			c.evictLocked(e)
			return
		}
		var next []string
		for _, id := range frontier {
			for _, n := range adj[id] {
				// No special case for n == e.key.id: the backends' BFS never
				// pre-marks the seed, so a cycle-creating ingest puts the
				// root into its own closure — the patch must match that.
				if _, seen := set[n]; seen {
					continue
				}
				set[n] = struct{}{}
				e.order = append(e.order, n)
				c.postLocked(n, e)
				next = append(next, n)
				grew = true
			}
		}
		frontier = next
	}
	if grew {
		c.patched.Add(1)
	}
}

// patchPatternsLocked appends an ingest's new triples to every memoized
// pattern they match. Triple flattening is shared with the triple backend
// (store.TriplesOf), so the patched results are exactly what a cold
// MatchBatch would now return.
func (c *Cache) patchPatternsLocked(l *provenance.RunLog) {
	if len(c.patterns) == 0 {
		return
	}
	if _, ok := c.s.(tripleMatcher); !ok {
		return
	}
	news := store.TriplesOf(l)
	for p, have := range c.patterns {
		added := false
		for _, t := range news {
			if matchesPattern(p, t) {
				have = append(have, t)
				added = true
			}
		}
		if added {
			store.SortTriples(have)
			c.patterns[p] = have
		}
	}
}

func matchesPattern(p, t store.Triple) bool {
	return (p.S == "" || p.S == t.S) && (p.P == "" || p.P == t.P) && (p.O == "" || p.O == t.O)
}

// evictLocked drops one closure entry in O(1): the entry is marked dead
// and its postings become tombstones. It never touches the postings lists,
// so callers may evict while ranging over one; they call sweepLocked once
// they are done.
func (c *Cache) evictLocked(e *entry) {
	if e.dead {
		return
	}
	e.dead = true
	delete(c.closures, e.key)
	c.nLive -= 1 + len(e.order)
	e.order, e.set = nil, nil // the tombstones keep e itself reachable
	c.evicted.Add(1)
	mCacheEvictions.Inc()
}

// postLocked records that e's closure contains node.
func (c *Cache) postLocked(node string, e *entry) {
	c.postings[node] = append(c.postings[node], e)
	c.nPostings++
	c.nLive++
}

// sweepLocked removes every tombstone from the reverse index once they
// outnumber the live postings, so the index stays within twice its live
// size at an amortized O(1) per evicted member.
func (c *Cache) sweepLocked() {
	if c.nPostings <= 2*c.nLive {
		return
	}
	for node, ps := range c.postings {
		live := ps[:0]
		for _, e := range ps {
			if !e.dead {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			delete(c.postings, node)
			continue
		}
		clear(ps[len(live):]) // drop the tail's references to dead entries
		c.postings[node] = live
	}
	c.nPostings = c.nLive
}

// --- Store: memoized reads ---------------------------------------------------

// Closure implements Store. Hits return the cached (patched) closure; a
// miss computes through the backend and memoizes the result only if no
// ingest intervened, so a racing reader can never cache a pre-patch view.
func (c *Cache) Closure(seed string, dir store.Direction) ([]string, error) {
	k := key{seed, dir}
	c.mu.RLock()
	if e, ok := c.closures[k]; ok {
		out := append([]string(nil), e.order...)
		c.mu.RUnlock()
		c.closureHits.Add(1)
		mCacheClosureHits.Inc()
		return out, nil
	}
	gen := c.generation
	c.mu.RUnlock()
	c.closureMisses.Add(1)
	mCacheClosureMisses.Inc()

	order, err := c.s.Closure(seed, dir)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.generation == gen {
		if _, exists := c.closures[k]; !exists {
			c.admitClosureLocked(k, order)
		}
	}
	c.mu.Unlock()
	return order, nil
}

// admitClosureLocked inserts a freshly computed closure under a key not
// cached, evicting an arbitrary entry when at capacity. It keeps its own
// copy of order (the caller's goes back to the client): one copy and one
// posting per member.
func (c *Cache) admitClosureLocked(k key, order []string) {
	if len(c.closures) >= c.opt.MaxClosures {
		for _, victim := range c.closures {
			c.evictLocked(victim)
			break
		}
		c.sweepLocked()
	}
	e := &entry{key: k, order: append([]string(nil), order...)}
	c.closures[k] = e
	c.postLocked(k.id, e)
	for _, n := range order {
		c.postLocked(n, e)
	}
}

// Expand implements Store, serving each requested entity from the memoized
// frontier when present and batching the rest through the backend.
func (c *Cache) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	out := make(map[string][]string, len(ids))
	var missing []string
	c.mu.RLock()
	gen := c.generation
	for _, id := range ids {
		if _, have := out[id]; have {
			continue
		}
		if ns, ok := c.hot[key{id, dir}]; ok {
			out[id] = append([]string(nil), ns...)
			c.expandHits.Add(1)
			mCacheExpandHits.Inc()
		} else {
			missing = append(missing, id)
			c.expandMisses.Add(1)
			mCacheExpandMisses.Inc()
		}
	}
	c.mu.RUnlock()
	if len(missing) == 0 {
		return out, nil
	}
	adj, err := c.s.Expand(missing, dir)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.generation == gen {
		for id, ns := range adj {
			if len(c.hot) >= c.opt.MaxNeighbors {
				break
			}
			c.hot[key{id, dir}] = append([]string(nil), ns...)
		}
	}
	c.mu.Unlock()
	for id, ns := range adj {
		out[id] = ns
	}
	return out, nil
}

// --- triple-pattern face (SPARQL-like engine) --------------------------------

// MatchBatch serves triple patterns through the cache when the wrapped
// backend is a triple store, memoizing per-pattern results with the same
// generation discipline as closures. On other backends every pattern
// resolves to no matches, mirroring a triple store that holds no triples.
func (c *Cache) MatchBatch(patterns []store.Triple) [][]store.Triple {
	m, ok := c.s.(tripleMatcher)
	if !ok {
		return make([][]store.Triple, len(patterns))
	}
	out := make([][]store.Triple, len(patterns))
	var missing []store.Triple
	var missingAt []int
	c.mu.RLock()
	gen := c.generation
	for i, p := range patterns {
		if ts, ok := c.patterns[p]; ok {
			out[i] = append([]store.Triple(nil), ts...)
			c.patternHits.Add(1)
		} else {
			missing = append(missing, p)
			missingAt = append(missingAt, i)
			c.patternMisses.Add(1)
		}
	}
	c.mu.RUnlock()
	if len(missing) == 0 {
		return out
	}
	res := m.MatchBatch(missing)
	c.mu.Lock()
	if c.generation == gen {
		for j, p := range missing {
			if len(c.patterns) >= c.opt.MaxPatterns {
				break
			}
			c.patterns[p] = append([]store.Triple(nil), res[j]...)
		}
	}
	c.mu.Unlock()
	for j, i := range missingAt {
		out[i] = res[j]
	}
	return out
}

// Match serves one pattern via MatchBatch.
func (c *Cache) Match(subj, pred, obj string) []store.Triple {
	return c.MatchBatch([]store.Triple{{S: subj, P: pred, O: obj}})[0]
}

// --- Store: delegated reads --------------------------------------------------

// RunLog implements Store.
func (c *Cache) RunLog(runID string) (*provenance.RunLog, error) { return c.s.RunLog(runID) }

// Runs implements Store.
func (c *Cache) Runs() ([]string, error) { return c.s.Runs() }

// Artifact implements Store.
func (c *Cache) Artifact(id string) (*provenance.Artifact, error) { return c.s.Artifact(id) }

// Execution implements Store.
func (c *Cache) Execution(id string) (*provenance.Execution, error) { return c.s.Execution(id) }

// GeneratorOf implements Store.
func (c *Cache) GeneratorOf(artifactID string) (string, error) { return c.s.GeneratorOf(artifactID) }

// ConsumersOf implements Store.
func (c *Cache) ConsumersOf(artifactID string) ([]string, error) { return c.s.ConsumersOf(artifactID) }

// Used implements Store.
func (c *Cache) Used(execID string) ([]string, error) { return c.s.Used(execID) }

// Generated implements Store.
func (c *Cache) Generated(execID string) ([]string, error) { return c.s.Generated(execID) }

// Stats implements Store.
func (c *Cache) Stats() (store.Stats, error) { return c.s.Stats() }

// Name implements Store, reporting the wrapped backend's name so the cache
// stays a drop-in replacement in tables and logs.
func (c *Cache) Name() string { return c.s.Name() }

// Close implements Store, draining any in-flight auto-checkpoint before
// closing the wrapped store (whose own Close drains its trigger too).
func (c *Cache) Close() error {
	c.autoCkpt.Drain()
	return c.s.Close()
}

// mergeSorted folds additions into an already-sorted, deduplicated
// neighbor list, preserving the sorted-unique invariant of Expand results.
func mergeSorted(have, add []string) []string {
	out := append(append([]string(nil), have...), add...)
	sort.Strings(out)
	dedup := out[:0]
	for i, s := range out {
		if i == 0 || s != out[i-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}
