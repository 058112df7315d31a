// Package shardedstore partitions runs across N shards (in-memory or
// file-backed stores: what provd and provctl serve from) behind one router
// that itself implements store.Store, so every query engine — and the
// closure cache, which wraps any Store — runs over a partitioned store
// unchanged. The pieces:
//
//   - Affinity placement (placeLocked): a run goes whole to the shard
//     holding the generator edges of most of the artifacts it uses, so a
//     lineage walk stays on one shard. A run log is one shard append and
//     one shard read, and runs on different shards ingest concurrently
//     under per-shard locking instead of one global writer.
//   - One directory, entity ID → handle → routeEntry: every ID interned
//     once to a dense handle, and per handle the shards holding the ID as
//     an artifact and as an execution (shared, content-addressed inputs
//     appear in runs on several shards) as two bit masks, the shard of its
//     latest declaration of each kind, and the single shard holding an
//     artifact's current generator edge (generator edges are
//     last-write-wins). Every routed read is one lookup in it. Ingest folds
//     each accepted run into it; opening a directory derives it from the
//     shards' resident entity tables (store.FileStore.EntityOwners) in
//     O(entities), so the router reads no log and keeps no snapshot file of
//     its own: each shard's checkpoint already restores the table the
//     directory is derived from.
//   - Routed Expand: one BFS frontier is planned against the directory and
//     every shard holding any frontier entity expands its share, in turn on
//     the calling goroutine; the per-shard neighbor lists merge under the
//     same tie-break/dedup rules as the single-store backends
//     (store.MergeNeighbors; artifact Up edges come only from the
//     generator's shard).
//   - Closure pushdown in handles: instead of one routed Expand per BFS
//     hop, each shard runs its local closure to fixpoint inside its own
//     lock (store.LocalCloser, the Shard contract), in its own handles, and
//     only the frontier of entities whose edges continue on another shard
//     is exchanged between rounds. Synchronization rounds drop from
//     O(depth) to O(cross-shard boundary crossings): the router skips
//     frontier entities with no remote edges (the directory already
//     knows) and batches each round's probes per destination shard. A
//     shard handle becomes a directory handle through a per-shard table
//     filled on first translation, so ingest does no work for it. A closure
//     whose every round continues from one entity on one shard — above all
//     one round on one shard, reaching only entities no other shard
//     contributes to — is its walks' local BFS orders end to end; any other
//     closure replays the gathered subgraph, by handle, to reproduce the
//     exact single-store BFS order. IDs become strings once, for the
//     answer.
//     TracedClosure exposes the round structure (-trace-rounds); the
//     conformance tests compare every answer with store.NaiveClosure, the
//     per-hop traversal over Router.Expand that the pushdown replaced.
//
// The router holds no edges of its own: shards own the graph, the router
// owns only the run placement and the directory, so its resident footprint
// is O(entities), not O(edges). (A pushdown closure transiently gathers the
// traversed subgraph's edges for the ordering replay, in buffers pooled
// across closures.)
package shardedstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/wal"
)

// Router observability: cross-shard latency and traversal-shape histograms.
// The underlying per-shard FileStores feed the prov_store_* families; these
// series measure the routed operation end to end, so the gap between
// prov_store_closure_seconds and prov_router_closure_seconds is the
// routing + frontier-exchange overhead.
var (
	mRouterIngestSecs  = obs.Default().Histogram("prov_router_ingest_seconds", "Routed PutRunLog latency: shard commit plus global index.")
	mRouterClosureSecs = obs.Default().Histogram("prov_router_closure_seconds", "Sharded closure latency (the frontier-exchange pushdown, end to end).")
	mRouterRounds      = obs.Default().ValueHistogram("prov_router_closure_rounds", "Pushdown rounds per sharded closure.")
	mRouterCrossings   = obs.Default().ValueHistogram("prov_router_closure_crossings", "Cross-shard frontier crossings per sharded closure.")
	mRouterFanout      = obs.Default().ValueHistogram("prov_router_scatter_shards", "Shards probed per Expand.")
	// Runs placed, by the placeLocked rule that picked their shard.
	mPlacedByInputs   = obs.Default().Counter("prov_router_placements_total", placementsHelp, obs.L("reason", "inputs"))
	mPlacedForBalance = obs.Default().Counter("prov_router_placements_total", placementsHelp, obs.L("reason", "balance"))
	mPlacedLeastLoad  = obs.Default().Counter("prov_router_placements_total", placementsHelp, obs.L("reason", "least_loaded"))
)

const placementsHelp = "Runs placed: with most of their inputs, on the least-loaded shard past the balance guard, or there because they use nothing stored."

// Shard is what the router needs of a backend: a store that can also run a
// closure to its local fixpoint under one lock acquisition. MemStore and
// FileStore — the backends provd and provctl shard — are the only ones.
type Shard interface {
	store.Store
	store.LocalCloser
}

// maxShards bounds a router's shard count: the directory's shard sets and
// the closure pushdown's probed sets are 64-bit masks.
const maxShards = 64

// Router implements store.Store over N underlying shards (memory- or
// file-backed). Reads go to the shards named by the directory, taken in
// turn, and merge under the shared rules; ingests place whole runs on one
// shard. Safe for concurrent readers and concurrent writers: writers
// serialize per shard (plus a brief placement and directory update), not
// globally.
type Router struct {
	shards []Shard
	files  []*store.FileStore // the same shards, for routers opened over a directory (nil otherwise)
	name   string
	dir    string // store directory for file-backed routers ("" otherwise)

	autoCkpt *store.AutoCheckpoint

	// closures pools a pushdown closure's walks and node state, so
	// closures stop reallocating them.
	closures sync.Pool

	mu       sync.RWMutex
	manifest *os.File            // global accepted-run order journal (file-backed routers)
	runShard map[string]int      // run -> the shard holding it
	reserved map[string]struct{} // runs placed whose shard commit is in flight
	loads    []int               // runs held per shard, what placement balances
	order    []string            // runs in accepted order
	// The directory, the only per-entity state: every entity ID interned
	// once to a dense handle, and where the entity lives by handle.
	ids  map[string]int32 // entity ID -> directory handle
	ents []routeEntry     // directory handle -> where the entity lives
	// local[si][h] is 1 + the directory handle of shard si's handle h, 0
	// until a closure first translates it. Elements are read and written
	// atomically under the read lock; a table grows only under the write
	// lock (rlockCovering).
	local [][]int32
	nArt  int // directory entries stored as an artifact
	nExec int // directory entries stored as an execution
}

// routeEntry is the directory's record of one entity ID. Shard sets are bit
// masks (bit i: shard i; CheckShards keeps the count within 64), so an
// entry is a value: folding a run copies no slice, and a reader may hold a
// mask after the lock is released. The zero value is an ID no run declared.
//
// Entity records and generator edges are last-write-wins across the store,
// so beside the shard that holds the latest artifact declaration, the
// latest execution declaration and the current generator edge, an entry
// keeps where in the accepted order (1-based; 0: no such run) the run
// behind each stands. A claim from a later run takes the field over, one
// from an earlier run does not: the one rule both producers of the
// directory apply (claimLocked), indexLocked to runs arriving in order and
// rebuild to what each shard's entity table remembers, in any order.
type routeEntry struct {
	arts, execs          uint64 // shards holding the ID as an artifact, as an execution
	artAt, execAt, genAt int32  // accepted position of the run behind art, exec, gen
	art, exec            uint8  // shard of the latest artifact / execution declaration (when arts / execs != 0)
	gen                  uint8  // 1 + shard of the current generator edge; 0: no run generated it
}

// known reports whether any run declared the ID; an entry holding only a
// generator edge (an event naming an artifact its run never declared, which
// validated ingest rules out) is unknown to every read.
func (e routeEntry) known() bool { return e.arts|e.execs != 0 }

// allowed reports which shards may contribute the entity's neighbor lists
// in a direction — the plan rule Expand and the pushdown closure share:
// artifact Up edges only from the current generator edge's shard (none for
// an artifact no run generated), everything else from every holding shard,
// artifact classification winning for an ID stored as both kinds.
func (e routeEntry) allowed(dir store.Direction) uint64 {
	switch {
	case e.arts == 0:
		return e.execs
	case dir == store.Down:
		return e.arts
	case e.gen == 0:
		return 0
	}
	return 1 << (e.gen - 1)
}

var _ store.Store = (*Router)(nil)

// CheckShards rejects a shard count the router cannot serve.
func CheckShards(n int) error {
	if n > maxShards {
		return fmt.Errorf("shardedstore: %d shards requested, at most %d are supported", n, maxShards)
	}
	return nil
}

// New builds a router over the given shards (at least one, at most
// maxShards). The shards should be empty or previously populated through a
// router with the same shard count and order; use OpenWith to reopen
// file-backed shards.
func New(shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shardedstore: need at least one shard")
	}
	if err := CheckShards(len(shards)); err != nil {
		return nil, err
	}
	r := &Router{
		shards:   shards,
		name:     fmt.Sprintf("sharded(%d×%s)", len(shards), shards[0].Name()),
		runShard: map[string]int{},
		reserved: map[string]struct{}{},
		loads:    make([]int, len(shards)),
		ids:      map[string]int32{},
		local:    make([][]int32, len(shards)),
	}
	r.closures.New = func() any {
		return &closureScratch{
			walks:   make([]store.LocalWalk, len(shards)),
			done:    make([]int, len(shards)),
			pending: make([][]string, len(shards)),
		}
	}
	for i := range shards {
		obs.Default().GaugeFunc("prov_router_shard_runs", "Runs placed on each shard of the router opened last.", func() float64 {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return float64(r.loads[i])
		}, obs.L("shard", strconv.Itoa(i)))
	}
	return r, nil
}

// NewMem returns a router over n fresh in-memory shards (n < 1 is treated
// as 1). A count from outside the program goes through CheckShards first
// (core.Options.ValidatePersistence does, for both CLIs); n above maxShards
// here is a caller's bug and panics.
func NewMem(n int) *Router {
	if n < 1 {
		n = 1
	}
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = store.NewMemStore()
	}
	r, err := New(shards)
	if err != nil {
		panic(err)
	}
	return r
}

const (
	manifestFileName = "router-manifest.log"
	metaFileName     = "router-meta.json"
)

// routerMeta is the durable record of a sharded store directory's layout:
// the shard count it was written with (reopening with any other count is
// rejected loudly — a shard left out of the count would silently drop the
// runs placed on it) and the per-shard checkpoint positions of the last
// Checkpoint, so operators
// and tools can see how much log each shard replays at reopen.
type routerMeta struct {
	Shards      int     `json:"shards"`
	Checkpoints []int64 `json:"checkpoint_offsets,omitempty"`
}

// DetectShards inspects a store directory's layout: the number of shards
// it was written with (from the meta record, falling back to counting
// shard subdirectories for pre-meta stores) and whether it holds an
// unsharded single-store log instead. n == 0 means the directory is empty
// or brand new.
func DetectShards(dir string) (n int, unsharded bool) {
	if _, err := os.Stat(filepath.Join(dir, store.LogFileName)); err == nil {
		return 0, true
	}
	var meta routerMeta
	if payload, ok := wal.LoadCheckpoint(filepath.Join(dir, metaFileName)); ok && json.Unmarshal(payload, &meta) == nil && meta.Shards > 0 {
		return meta.Shards, false
	}
	for i := 0; ; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d", i))); err != nil {
			return i, false
		}
	}
}

// validateLayout rejects reopening a store directory with a different
// shard count than it was written with.
func validateLayout(dir string, n int) error {
	existing, unsharded := DetectShards(dir)
	if unsharded {
		return fmt.Errorf("shardedstore: %s holds an unsharded store log; open it without shards or reshard it offline", dir)
	}
	if existing > 0 && existing != n {
		return fmt.Errorf("shardedstore: %s was written with %d shards, refusing to open with %d (runs live on the shards they were placed on; reshard offline instead)", dir, existing, n)
	}
	return nil
}

// OpenWith opens (or creates) n file-backed shards under dir/shard-000 …
// dir/shard-N-1 and rebuilds the router's run placement and directory from
// the shards' recovered state. Each shard owns its own write-ahead
// group-commit log (store.FileOptions.Durability selects none or group),
// so under DurabilityGroup concurrent ingests coalesce per shard AND
// overlap across shards. CheckpointEvery is counted router-wide: every N
// accepted ingests the router checkpoints all shards and records their
// checkpoint positions in the store's meta record.
//
// A small manifest journal (dir/router-manifest.log, one run ID per
// accepted ingest) preserves the global cross-shard ingest order, so a
// reopened router restores Runs() order and generator last-write-wins
// tie-breaks exactly in the common case. The manifest is advisory, not
// authoritative: runs the journal misses (a crash between the shard append
// and the manifest append, or a failed journal write) are recovered from
// the shards' run lists and ordered after the journaled runs, stale or torn
// entries are dropped, and a journal that differs from the recovered order
// is rewritten to it so later reopens are stable. Run data thus never
// depends on the journal; the one observable skew is that a journal-missed
// run orders last, which can flip a generator tie-break for an artifact whose generator was
// re-declared across shards (journaling durably would need an fsync per
// ingest on a shared file — exactly the serialization sharding removes).
//
// A store directory must be reopened with the shard count it was written
// with: any mismatch (including opening an unsharded log as sharded) is
// rejected loudly, because a shard missing from the count would silently
// drop the runs placed on it.
func OpenWith(dir string, n int, opt store.FileOptions) (*Router, error) {
	if n < 1 {
		n = 1
	}
	if err := CheckShards(n); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardedstore: create dir: %w", err)
	}
	if err := validateLayout(dir, n); err != nil {
		return nil, err
	}
	// Checkpointing is coordinated by the router, not per shard.
	shardOpt := opt
	shardOpt.CheckpointEvery = 0
	// Recovery — a checkpoint restore plus a decode per log-suffix record —
	// is the whole cost of an open, and the shards share nothing: they
	// recover concurrently.
	files := make([]*store.FileStore, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if files[i], err = store.OpenFileStoreWith(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)), shardOpt); err != nil {
				errs[i] = fmt.Errorf("shardedstore: open shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	closeOpened := func() {
		for _, fs := range files {
			if fs != nil {
				fs.Close()
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		closeOpened()
		return nil, err
	}
	shards := make([]Shard, n)
	for i, fs := range files {
		shards[i] = fs
	}
	r, err := New(shards)
	if err != nil {
		closeOpened()
		return nil, err
	}
	r.dir, r.files = dir, files
	// One router-wide trigger counts the runs of every shard; the shards'
	// own triggers are zeroed above.
	r.autoCkpt = store.NewAutoCheckpoint(opt.CheckpointEvery)
	if err := r.rebuild(dir); err != nil {
		r.Close()
		return nil, err
	}
	if err := r.writeMeta(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// writeMeta records the directory's shard count and the shards' last
// checkpoint positions.
func (r *Router) writeMeta() error {
	if r.dir == "" {
		return nil
	}
	meta := routerMeta{Shards: len(r.files)}
	for _, fs := range r.files {
		var off int64 = -1
		if o, has := fs.LastCheckpoint(); has {
			off = o
		}
		meta.Checkpoints = append(meta.Checkpoints, off)
	}
	payload, _ := json.Marshal(meta) // an int and an []int64 always marshal
	return wal.SaveCheckpoint(filepath.Join(r.dir, metaFileName), payload)
}

// Checkpoint implements Store: every file shard checkpoints in
// parallel (snapshot + log fsync each), then the meta record captures the
// new checkpoint positions. Closure-cache layers above the router persist
// their own snapshot on top of this. A memory router has nothing to
// checkpoint.
func (r *Router) Checkpoint() error {
	errs := make([]error, len(r.files))
	var wg sync.WaitGroup
	for i, fs := range r.files {
		wg.Add(1)
		go func(i int, fs *store.FileStore) {
			defer wg.Done()
			errs[i] = fs.Checkpoint()
		}(i, fs)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return r.writeMeta()
}

// rebuild reconstructs the run placement, the accepted order and the
// directory from the recovered shards without reading a log. The order is
// the manifest's where the journal has the run, then any journal-missed
// runs in shard order. The directory comes from the shards' entity tables:
// each names, per ID, the local run that last declared it as an artifact,
// last declared it as an execution, and set its current generator; across
// shards the claim whose run stands later in the accepted order wins, which
// is where folding the runs one by one in that order (indexLocked) ends up.
// The two agree wherever a shard's log order agrees with the accepted
// order. Where two concurrent ingests to one shard reached the router in
// the opposite of their commit order and both declared an ID, the shard's
// table remembers the one it committed last and the fold the one accepted
// last, so the derived entry carries the earlier of their two positions.
// That moves the routing only if a run on another shard declared the ID
// between the two — and there the live router already contradicts its own
// Runs(): it routes to the shard of the run accepted last, which answers
// from the run it committed last.
func (r *Router) rebuild(dir string) error {
	manifestPath := filepath.Join(dir, manifestFileName)
	journal, err := os.ReadFile(manifestPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("shardedstore: read manifest: %w", err)
	}
	manifestOrder := strings.Split(string(journal), "\n")
	manifestOrder = manifestOrder[:len(manifestOrder)-1] // the empty tail, or a torn trailing entry

	shardRuns := make([][]string, len(r.files))
	for si, fs := range r.files {
		if shardRuns[si], err = fs.Runs(); err != nil {
			return fmt.Errorf("shardedstore: rebuild shard %d: %w", si, err)
		}
		for _, runID := range shardRuns[si] {
			r.runShard[runID] = si
		}
		r.loads[si] = len(shardRuns[si])
	}
	at := make(map[string]int32, len(r.runShard)) // run -> 1 + position in the accepted order
	r.order = make([]string, 0, len(r.runShard))
	for _, runs := range append([][]string{manifestOrder}, shardRuns...) {
		for _, runID := range runs {
			if _, stored := r.runShard[runID]; stored && at[runID] == 0 {
				r.order = append(r.order, runID)
				at[runID] = int32(len(r.order))
			}
		}
	}

	for si, fs := range r.files {
		ats := make([]int32, 1+len(shardRuns[si])) // 1 + local run -> accepted position; ats[0]: no run
		for i, runID := range shardRuns[si] {
			ats[1+i] = at[runID]
		}
		fs.EntityOwners(func(id string, artRun, execRun, genRun int32) {
			r.claimLocked(id, si, ats[1+artRun], ats[1+execRun], ats[1+genRun])
		})
	}

	// A journal that is not the recovered order, byte for byte, is
	// rewritten; either way it stays open for appends.
	var b strings.Builder
	for _, runID := range r.order {
		b.WriteString(runID)
		b.WriteByte('\n')
	}
	if b.String() != string(journal) {
		if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("shardedstore: rewrite manifest: %w", err)
		}
	}
	if r.manifest, err = os.OpenFile(manifestPath, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644); err != nil {
		return fmt.Errorf("shardedstore: open manifest: %w", err)
	}
	return nil
}

// NumShards reports the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard exposes one underlying shard (tests and stats tooling).
func (r *Router) Shard(i int) store.Store { return r.shards[i] }

// indexLocked folds one accepted run into the run placement and the
// directory; the caller holds the write lock.
func (r *Router) indexLocked(l *provenance.RunLog, shard int) {
	r.runShard[l.Run.ID] = shard
	r.loads[shard]++
	r.order = append(r.order, l.Run.ID)
	at := int32(len(r.order))
	for _, a := range l.Artifacts {
		r.claimLocked(a.ID, shard, at, 0, 0)
	}
	for _, x := range l.Executions {
		r.claimLocked(x.ID, shard, 0, at, 0)
	}
	for _, ev := range l.Events {
		if ev.Kind == provenance.EventArtifactGen {
			r.claimLocked(ev.ArtifactID, shard, 0, 0, at)
		}
	}
}

// claimLocked records in the directory what a run stored on shard did to
// id: declared it as an artifact, declared it as an execution, generated
// it — each given as the run's accepted position (1-based), 0 where it did
// not. The shard joins the holding sets; it takes over the latest
// declaration or the generator edge only from a run accepted earlier. The
// caller holds the write lock (or is the only user, during rebuild).
func (r *Router) claimLocked(id string, shard int, artAt, execAt, genAt int32) {
	if artAt|execAt|genAt == 0 {
		return
	}
	d, ok := r.ids[id]
	if !ok {
		d = int32(len(r.ents))
		r.ids[id] = d
		r.ents = append(r.ents, routeEntry{})
	}
	e := &r.ents[d]
	if artAt > 0 {
		if e.arts == 0 {
			r.nArt++
		}
		e.arts |= 1 << uint(shard)
		if artAt > e.artAt {
			e.artAt, e.art = artAt, uint8(shard)
		}
	}
	if execAt > 0 {
		if e.execs == 0 {
			r.nExec++
		}
		e.execs |= 1 << uint(shard)
		if execAt > e.execAt {
			e.execAt, e.exec = execAt, uint8(shard)
		}
	}
	if genAt > e.genAt {
		e.genAt, e.gen = genAt, uint8(shard)+1
	}
}

// --- Store: ingest -----------------------------------------------------------

// PutRunLog implements Store: the run is placed whole on one shard
// (placeLocked), and runs on different shards ingest concurrently. The
// router's lock is held to tally votes and reserve the run ID — a racing
// put of the same ID fails here, whatever shard its inputs would pick — and
// for the directory update after the shard accepts the log. Validation is
// the shard's: every backend validates before storing, and a second
// router-side pass would serialize that CPU across all writers.
func (r *Router) PutRunLog(l *provenance.RunLog) error {
	start := obs.Now()
	r.mu.Lock()
	shard, placed := r.placeLocked(l)
	err := r.reserveLocked(l.Run.ID, shard)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := r.commit(l, shard); err != nil {
		return err
	}
	placed.Inc()
	mRouterIngestSecs.ObserveSince(start)
	return nil
}

// placeLocked picks a new run's shard. Each use of an artifact whose
// generator edge is stored votes for the shard holding that edge, where an
// upstream walk from the run continues; the most votes win, ties go to
// fewer runs, then the lower index. A run that uses nothing stored, or
// whose winner would then hold more than 5/4 of the mean run count plus 64
// (the allowance keeps small stores and single chains whole), goes to the
// shard holding the fewest runs. Placement reads only the directory and the
// counts: ingest order, never ID bytes. The caller holds the write lock.
func (r *Router) placeLocked(l *provenance.RunLog) (shard int, placed *obs.Counter) {
	var votes [maxShards]int
	for _, ev := range l.Events {
		if ev.Kind == provenance.EventArtifactUsed {
			if g := r.entryLocked(ev.ArtifactID).gen; g != 0 {
				votes[g-1]++
			}
		}
	}
	best, least := -1, 0
	for si, n := range r.loads {
		if n < r.loads[least] {
			least = si
		}
		if v := votes[si]; v > 0 && (best < 0 || v > votes[best] || v == votes[best] && n < r.loads[best]) {
			best = si
		}
	}
	switch n := len(r.loads); {
	case best < 0:
		return least, mPlacedLeastLoad
	case 4*n*(r.loads[best]+1) > 5*(len(r.runShard)+len(r.reserved)+1)+256*n:
		return least, mPlacedForBalance
	}
	return best, mPlacedByInputs
}

// reserveLocked claims a run ID for one in-flight put to shard, counting it
// in the shard's load so concurrent placements see it; RunLog, Runs and
// Stats see the run only once commit folds it in. The caller holds the
// write lock.
func (r *Router) reserveLocked(runID string, shard int) error {
	_, stored := r.runShard[runID]
	_, inFlight := r.reserved[runID]
	if stored || inFlight {
		return fmt.Errorf("store: run %q already stored", runID)
	}
	r.reserved[runID] = struct{}{}
	r.loads[shard]++
	return nil
}

// commit stores a reserved run on shard and folds it into the placement
// and the directory; the reservation is released either way.
func (r *Router) commit(l *provenance.RunLog, shard int) error {
	err := r.shards[shard].PutRunLog(l)
	r.mu.Lock()
	delete(r.reserved, l.Run.ID)
	r.loads[shard]--
	if err == nil {
		r.indexLocked(l, shard)
		if r.manifest != nil {
			// Advisory order journal; never fail the ingest the shard already
			// committed over it. A missed append costs this run its place in
			// the reopen ordering: it replays after the journaled runs, which
			// can flip a cross-shard generator tie-break if another run
			// re-declared the same artifact's generator (see OpenWith).
			_, _ = r.manifest.WriteString(l.Run.ID + "\n")
		}
	}
	r.mu.Unlock()
	if err == nil {
		r.autoCkpt.Tick(r.Checkpoint)
	}
	return err
}

// --- Store: routed single-entity reads ---------------------------------------

// RunLog implements Store, served by the shard holding the run.
func (r *Router) RunLog(runID string) (*provenance.RunLog, error) {
	r.mu.RLock()
	shard, ok := r.runShard[runID]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: run %q", store.ErrNotFound, runID)
	}
	return r.shards[shard].RunLog(runID)
}

// Runs implements Store: accepted order across all shards.
func (r *Router) Runs() ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...), nil
}

// entryLocked reads one directory entry, the zero entry for an unknown
// ID; the caller holds the lock.
func (r *Router) entryLocked(id string) routeEntry {
	if d, ok := r.ids[id]; ok {
		return r.ents[d]
	}
	return routeEntry{}
}

// Entities implements Store: each ID routes to the shard that most
// recently declared it (artifact classification first), so entity records
// stay last-write-wins across shards as on MemStore and FileStore,
// and every shard answers its share in one batch.
func (r *Router) Entities(ids []string) ([]store.Entity, error) {
	perShard := make([][]int, len(r.shards)) // shard -> indexes into ids
	r.mu.RLock()
	for i, id := range ids {
		switch e := r.entryLocked(id); {
		case e.arts != 0:
			perShard[e.art] = append(perShard[e.art], i)
		case e.execs != 0:
			perShard[e.exec] = append(perShard[e.exec], i)
		}
	}
	r.mu.RUnlock()
	out := make([]store.Entity, len(ids))
	for shard, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		sub := make([]string, len(idx))
		for j, i := range idx {
			sub[j] = ids[i]
		}
		ents, err := r.shards[shard].Entities(sub)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			out[i] = ents[j]
		}
	}
	return out, nil
}

// --- Store: whole-store scan -------------------------------------------------

// ScanLogs implements Store: the shards stream their logs in
// parallel and the merge emits them in the router's accepted order, the
// order a run-at-a-time walk of Runs() would visit.
func (r *Router) ScanLogs(skip int, fn func(*provenance.RunLog) error) error {
	// The accepted order is read before the shard scans start, so every
	// run it lists is already below its shard's watermark. Elements below
	// the captured length never change (the order only appends), so the
	// suffix is safe to walk after the lock is released.
	r.mu.RLock()
	order := r.order[min(max(skip, 0), len(r.order)):]
	r.mu.RUnlock()
	if len(order) == 0 {
		return nil
	}
	skips := make([]int, len(r.shards))
	if skip > 0 {
		var err error
		if skips, err = r.shardSkips(order); err != nil {
			return err
		}
	}
	return mergeRuns(r, order, func(shard int, emit func(*provenance.RunLog) error) error {
		return r.shards[shard].ScanLogs(skips[shard], emit)
	}, func(l *provenance.RunLog) string { return l.Run.ID }, fn)
}

// ScanRows implements Store as ScanLogs does, over the shards'
// row streams: each file shard emits from its row image, a MemStore shard
// flattens its logs. Rows are copied into the merge, which may hold a
// shard's rows until the accepted order reaches them; a copy goes back to
// rowsPool once fn has returned with it.
func (r *Router) ScanRows(fn func(*store.RunRows) error) error {
	r.mu.RLock()
	order := r.order
	r.mu.RUnlock()
	if len(order) == 0 {
		return nil
	}
	return mergeRuns(r, order, func(shard int, emit func(*store.RunRows) error) error {
		return r.shards[shard].ScanRows(func(rows *store.RunRows) error {
			c := rowsPool.Get().(*store.RunRows)
			rows.CopyTo(c)
			return emit(c)
		})
	}, func(rows *store.RunRows) string { return rows.Run.ID }, func(rows *store.RunRows) error {
		err := fn(rows)
		rowsPool.Put(rows)
		return err
	})
}

// rowsPool recycles the merge's copies of shard rows across runs and scans.
var rowsPool = sync.Pool{New: func() any { return new(store.RunRows) }}

// shardSkips finds, per shard, the position in that shard's own log of the
// earliest run in suffix (a tail of the accepted order): where its scan
// must start to cover the suffix. Walking each shard's run list backwards
// until it has met all of the shard's suffix runs costs O(len(suffix))
// however long the history before it.
func (r *Router) shardSkips(suffix []string) ([]int, error) {
	want := make(map[string]bool, len(suffix))
	left := make([]int, len(r.shards)) // suffix runs per shard not yet met
	r.mu.RLock()
	for _, runID := range suffix {
		want[runID] = true
		left[r.runShard[runID]]++
	}
	r.mu.RUnlock()
	skips := make([]int, len(r.shards))
	for si, s := range r.shards {
		runs, err := s.Runs()
		if err != nil {
			return nil, err
		}
		at := len(runs)
		for left[si] > 0 && at > 0 {
			at--
			if want[runs[at]] {
				left[si]--
			}
		}
		skips[si] = at
	}
	return skips, nil
}

// mergeAhead is how many runs a shard's scan may run ahead of the merge.
// Placement interleaves the shards' runs in the global order — in
// stretches where a lineage keeps to one shard, run by run where sources
// spread — so the merge may drain one shard for a while and then ask the
// others in turn; this much slack keeps every shard decoding while the
// merge drains another, without ever holding more than shards × mergeAhead
// runs.
const mergeAhead = 32

var errMergeStopped = errors.New("shardedstore: merge stopped")

// mergeRuns replays the shards' runs along order, calling fn with each:
// the one merge of ScanLogs (T a decoded log) and ScanRows (T a run's
// rows). One goroutine per shard runs scan for that shard, whose emit
// hands each run over; the calling goroutine walks order and pulls each
// run from its home shard's stream (runID names the run a T belongs to).
// A shard's order agrees with the global order except where concurrent
// ingests to one shard reached the router's index out of commit order, so
// a run that arrives ahead of its turn is parked until order reaches it
// and the parked set stays within the ingest concurrency. A run its
// shard's scan does not surface is skipped. The scans are stopped and
// waited for on return.
func mergeRuns[T any](r *Router, order []string,
	scan func(shard int, emit func(T) error) error,
	runID func(T) string, fn func(T) error) error {

	type stream struct {
		ch  chan T
		err error // the scan's failure; written before ch closes
	}
	streams := make([]stream, len(r.shards))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range r.shards {
		streams[i].ch = make(chan T, mergeAhead)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(streams[i].ch)
			err := scan(i, func(x T) error {
				select {
				case streams[i].ch <- x:
					return nil
				case <-stop:
					return errMergeStopped
				}
			})
			if !errors.Is(err, errMergeStopped) {
				streams[i].err = err
			}
		}(i)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	parked := map[string]T{}
	for _, id := range order {
		r.mu.RLock()
		shard := r.runShard[id]
		r.mu.RUnlock()
		x, found := parked[id]
		for !found {
			next, open := <-streams[shard].ch
			if !open {
				if err := streams[shard].err; err != nil {
					return err
				}
				break
			}
			if runID(next) == id {
				x, found = next, true
			} else {
				parked[runID(next)] = next
			}
		}
		if !found {
			continue
		}
		delete(parked, id)
		if err := fn(x); err != nil {
			return err
		}
	}
	return nil
}

// --- Store: routed traversal -------------------------------------------------

// Expand implements Store: the frontier is planned against the directory,
// each shard with work expands its share in turn on the calling goroutine,
// and the lists are gathered under the shared merge rules. Known entities
// always get an entry; artifact Up edges come only from the shard holding
// the artifact's current generator edge, so a generator re-declared on
// another shard never resurrects the stale edge. Neighbor lists in the
// result may alias the shards' per-call response slices; callers must not
// mutate them.
func (r *Router) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	perShard := make([][]string, len(r.shards))
	out := make(map[string][]string, len(ids))
	r.mu.RLock()
	for _, id := range ids {
		if _, done := out[id]; done {
			continue
		}
		// Unknown IDs stay absent from the result; a known artifact without
		// a generator probes no shard going Up and keeps its empty entry.
		if e := r.entryLocked(id); e.known() {
			out[id] = nil
			for m := e.allowed(dir); m != 0; m &= m - 1 {
				si := bits.TrailingZeros64(m)
				perShard[si] = append(perShard[si], id)
			}
		}
	}
	r.mu.RUnlock()

	fanout := 0
	for si, seeds := range perShard {
		if len(seeds) == 0 {
			continue
		}
		fanout++
		res, err := r.shards[si].Expand(seeds, dir)
		if err != nil {
			return nil, err
		}
		// Every store answers an empty list as nil, so an entity adopts its
		// first non-empty list and merges any later one.
		for _, id := range seeds {
			switch ns := res[id]; {
			case out[id] == nil:
				out[id] = ns
			case len(ns) > 0:
				out[id] = store.MergeNeighbors(out[id], ns)
			}
		}
	}
	mRouterFanout.ObserveValue(uint64(fanout))
	return out, nil
}

// ClosureTrace describes the round structure of one pushdown Closure: the
// observability surface behind provctl/provd's -trace-rounds flag and the
// prov_router_closure_rounds histogram. Rounds ≤ Crossings + 1 by construction —
// every round past the first is driven by at least one cross-shard
// continuation.
type ClosureTrace struct {
	Seed      string
	Dir       store.Direction
	Rounds    int   // local-fixpoint rounds executed
	Probes    []int // (entity, shard) probes issued per round
	Crossings int   // cross-shard continuations: probes issued after round 1
	Nodes     int   // closure size
}

// Closure implements Store with per-shard closure pushdown: every round,
// each probed shard runs its local closure to fixpoint inside its own lock
// (store.LocalCloser) and only entities whose edges continue on another
// shard — known from the directory — are exchanged for the next round,
// batched per destination shard. The visit order still matches the
// single-store backends exactly (per-node sorted neighbors merged under the
// shared tie-break rules, seed excluded): a closure whose rounds each
// continue from one entity on one shard is its walks' orders end to end,
// any other replays the gathered subgraph to reconstruct the global BFS.
func (r *Router) Closure(seed string, dir store.Direction) ([]string, error) {
	order, _, err := r.closure(seed, dir, false)
	return order, err
}

// TracedClosure is Closure returning its round trace.
func (r *Router) TracedClosure(seed string, dir store.Direction) ([]string, ClosureTrace, error) {
	return r.closure(seed, dir, true)
}

// closure runs one pushdown closure; the trace lists its probes per round
// only when traced, so an untraced closure allocates its answer alone.
func (r *Router) closure(seed string, dir store.Direction, traced bool) ([]string, ClosureTrace, error) {
	start := obs.Now()
	tr := ClosureTrace{Seed: seed, Dir: dir}
	order, err := r.pushdown(seed, dir, &tr, traced)
	if err != nil {
		return nil, tr, err
	}
	tr.Nodes = len(order)
	mRouterClosureSecs.ObserveSince(start)
	mRouterRounds.ObserveValue(uint64(tr.Rounds))
	mRouterCrossings.ObserveValue(uint64(tr.Crossings))
	return order, tr, nil
}

// closureScratch is one pushdown closure's state, pooled on the router
// and dense by handle, so a closure allocates nothing but its answer once
// the buffers have grown.
type closureScratch struct {
	walks   []store.LocalWalk // walks[si]: the closure's walk over shard si's handles
	done    []int             // done[si]: how much of walks[si] the driver has folded in
	pending [][]string        // pending[si]: the IDs shard si's next round starts from
	// A sequential closure's answer: per round, the shard and the span of
	// its walk's Order past the entity the round started from.
	segs []segment
	// Entities the closure has reached, by directory handle d: reached
	// when seen[d].epoch == epoch, and then, once the closure gathers its
	// subgraph, seen[d].node is d's node.
	seen  []mark
	epoch uint32
	nodes []pdNode
	adj   []int32 // the nodes' accepted neighbour lists, as nodes
	at    []int32 // per walk position being folded in: its directory handle or node, -1 for none
	queue []int32 // the replay's BFS queue
}

// segment is one round's part of a sequential closure's answer:
// walks[shard].IDs[from:to].
type segment struct{ shard, from, to int }

// mark is one directory handle's entry in a closure.
type mark struct {
	epoch uint32
	node  int32
}

// pdNode is one entity's state in a pushdown closure's gathered subgraph.
// allowed holds the shards the entity's edges may legitimately come from
// under the global classification rules (routeEntry.allowed) — lists
// returned by other shards are dropped, so a stale generator edge or a
// diverging local kind on a shard that re-declared the ID never leaks
// into the merged adjacency. probed tracks which shards have locally
// expanded the entity; both are bit masks (hence maxShards), and an entity
// with allowed ⊆ probed has no remote edges left and is never exchanged
// again.
type pdNode struct {
	allowed  uint64 // accepted source shards (global classification)
	probed   uint64 // shards whose local fixpoint expanded the node
	id       string
	from, to int32 // accepted, globally merged neighbour list: adj[from:to]
	listed   bool  // a shard's list was accepted
	visited  bool  // reached by the ordering replay
}

// begin starts a new set of marks for a directory of n handles: one
// increment, not a clear. The gathered subgraph starts empty.
func (cs *closureScratch) begin(n int) {
	if len(cs.seen) < n {
		cs.seen = make([]mark, n+n/4+64)
		cs.epoch = 0
	}
	cs.epoch++
	if cs.epoch == 0 {
		clear(cs.seen)
		cs.epoch = 1
	}
	cs.nodes, cs.adj = cs.nodes[:0], cs.adj[:0]
}

// mark records directory handle d as reached, growing the marks when the
// directory grew since begin, and reports the mark.
func (cs *closureScratch) mark(d int32) *mark {
	if int(d) >= len(cs.seen) {
		n := int(d) + 1
		cs.seen = append(cs.seen, make([]mark, n+n/4+64-len(cs.seen))...)
	}
	return &cs.seen[d]
}

// nodeOf returns the node of directory handle d, -1 when the gathered
// subgraph has none.
func (cs *closureScratch) nodeOf(d int32) int32 {
	if d < 0 || int(d) >= len(cs.seen) || cs.seen[d].epoch != cs.epoch {
		return -1
	}
	return cs.seen[d].node
}

// pushdown is the closure driver behind Closure and TracedClosure. A
// closure runs sequentially while every round probes one entity on one
// shard and that round's walk continues the answer exactly
// (sequentialLocked): the answer is the rounds' walks end to end, with no
// replay. Any other closure gathers the subgraph all its walks expanded
// (gatherLocked) and replays it.
func (r *Router) pushdown(seed string, dir store.Direction, tr *ClosureTrace, traced bool) ([]string, error) {
	r.mu.RLock()
	d0, ok := r.ids[seed]
	e0 := routeEntry{}
	if ok {
		e0 = r.ents[d0]
	}
	r.mu.RUnlock()
	if !e0.known() {
		return nil, fmt.Errorf("%w: entity %q", store.ErrNotFound, seed)
	}
	cs := r.closures.Get().(*closureScratch)
	defer r.closures.Put(cs)
	cs.segs = cs.segs[:0]
	npending := 0
	for m := e0.allowed(dir); m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		cs.pending[si] = append(cs.pending[si][:0], seed)
		npending++
	}
	if npending == 0 { // an artifact no run generated, going Up
		return []string{}, nil
	}

	sequential, gathering := npending == 1, false
	var begun uint64 // shards whose walk this closure has begun
	for npending > 0 {
		tr.Rounds++
		if traced {
			tr.Probes = append(tr.Probes, npending)
		}
		if tr.Rounds > 1 {
			tr.Crossings += npending
		}

		// One local fixpoint per shard with probes, in turn; each shard's
		// walk stops at what it expanded in an earlier round.
		var probed uint64
		for si, seeds := range cs.pending {
			if len(seeds) > 0 {
				probed |= 1 << uint(si)
			}
		}
		for m := probed; m != 0; m &= m - 1 {
			si := bits.TrailingZeros64(m)
			if begun&(1<<uint(si)) == 0 {
				cs.walks[si].Begin()
				cs.done[si] = 0
			}
			r.shards[si].CloseLocal(&cs.walks[si], cs.pending[si], dir)
			cs.pending[si] = cs.pending[si][:0]
		}
		begun |= probed

		r.rlockCovering(cs.walks, probed)
		if sequential {
			var ok bool
			if npending, ok = r.sequentialLocked(cs, bits.TrailingZeros64(probed), tr.Rounds, dir); ok {
				r.mu.RUnlock()
				continue
			}
			sequential = false
			for m := begun; m != 0; m &= m - 1 {
				cs.done[bits.TrailingZeros64(m)] = 0
			}
		}
		if !gathering {
			// The subgraph gathers the whole closure so far, every walk
			// from its start; the seed is node 0.
			gathering = true
			cs.begin(len(r.ents))
			cs.nodeLocked(r, d0, seed, dir)
		}
		npending = r.gatherLocked(cs, begun, dir)
		r.mu.RUnlock()
	}
	if sequential {
		return cs.concat(), nil
	}
	return cs.replay(), nil
}

// sequentialLocked folds round's walk, on shard si from the one entity
// the round probed, into a sequential closure, when that walk continues
// the answer exactly: every entity it expanded is known to the directory,
// new to the closure, and kept the list si reported (so no stale
// generator edge of si's led the walk astray); no cycle leads back to the
// seed; and at most one entity has edges on another shard — the walk's
// last, on one other shard only, with none here. Global BFS then reaches
// the round's entities in the walk's order, after everything earlier
// rounds answered, and the next round, if any, is that last entity on its
// other shard. It reports the probes it queued (0 or 1), and false when
// the closure must gather and replay instead. The caller holds the read
// lock, local[si] covering the walk.
func (r *Router) sequentialLocked(cs *closureScratch, si, round int, dir store.Direction) (int, bool) {
	w := &cs.walks[si]
	from := cs.done[si]
	cs.done[si] = len(w.Order)
	if from == len(w.Order) {
		return 0, true // the probed entity is not stored on si
	}
	mask := uint64(1) << uint(si)
	last := len(w.Order) - 1
	cs.at = cs.at[:0]
	var next uint64
	for i := from; i <= last; i++ {
		d := r.dirHandleLocked(si, w.Order[i], w.IDs[i])
		if d < 0 {
			return 0, false
		}
		if round > 1 {
			// Rounds after the first start from the entity the last one
			// ended with; everything else must be new.
			if m := cs.mark(d); (m.epoch == cs.epoch) != (i == from) {
				return 0, false
			}
		}
		allowed := r.ents[d].allowed(dir)
		if allowed&mask == 0 && w.Ends[i+1] > w.Ends[i] {
			return 0, false
		}
		if elsewhere := allowed &^ mask; elsewhere != 0 {
			if i != last || i == from || allowed != elsewhere || elsewhere&(elsewhere-1) != 0 {
				return 0, false
			}
			next = elsewhere
		}
		cs.at = append(cs.at, d)
	}
	if round == 1 && slices.Contains(w.Adj, w.Order[0]) {
		return 0, false // a cycle: the replay reports the seed where it reaches it
	}
	if round > 1 && cs.segs[0].shard == si && slices.Contains(w.Adj[w.Ends[from]:], w.Order[0]) {
		return 0, false
	}
	cs.segs = append(cs.segs, segment{si, from + 1, len(w.Order)})
	if next == 0 {
		return 0, true
	}
	if round == 1 {
		cs.begin(len(r.ents))
	}
	for _, d := range cs.at {
		cs.mark(d).epoch = cs.epoch
	}
	ns := bits.TrailingZeros64(next)
	cs.pending[ns] = append(cs.pending[ns], w.IDs[last])
	return 1, true
}

// concat is a sequential closure's answer: its rounds' segments end to
// end, each ID copied once.
func (cs *closureScratch) concat() []string {
	n := 0
	for _, g := range cs.segs {
		n += g.to - g.from
	}
	order := make([]string, 0, n)
	for _, g := range cs.segs {
		order = append(order, cs.walks[g.shard].IDs[g.from:g.to]...)
	}
	return order
}

// rlockCovering takes the read lock with the translation table of every
// shard in probed covering its walk's handles. A table shorter than that
// (its shard grew since) grows first, under the write lock, with headroom
// so that a shard growing a run at a time does not regrow it per closure.
func (r *Router) rlockCovering(walks []store.LocalWalk, probed uint64) {
	for {
		r.mu.RLock()
		short := false
		for m := probed; m != 0; m &= m - 1 {
			si := bits.TrailingZeros64(m)
			short = short || len(r.local[si]) < walks[si].Handles
		}
		if !short {
			return
		}
		r.mu.RUnlock()
		r.mu.Lock()
		for m := probed; m != 0; m &= m - 1 {
			si := bits.TrailingZeros64(m)
			if n := walks[si].Handles; len(r.local[si]) < n {
				grown := make([]int32, n+n/4+64)
				copy(grown, r.local[si])
				r.local[si] = grown
			}
		}
		r.mu.Unlock()
	}
}

// dirHandleLocked translates shard si's handle h, whose ID is id, to its
// directory handle: -1 while the directory does not know the ID, a run the
// shard committed and the router has not folded yet. The first translation
// of a handle hashes its ID, every later one is a table read. The caller
// holds the read lock with local[si] covering h (rlockCovering).
func (r *Router) dirHandleLocked(si int, h int32, id string) int32 {
	cell := &r.local[si][h]
	if d := atomic.LoadInt32(cell); d != 0 {
		return d - 1
	}
	d, ok := r.ids[id]
	if !ok {
		return -1
	}
	atomic.StoreInt32(cell, d+1)
	return d
}

// nodeLocked returns the node of directory handle d, whose ID is id,
// making one classified under the directory the first time the gathered
// subgraph reaches d. The caller holds the read lock.
func (cs *closureScratch) nodeLocked(r *Router, d int32, id string, dir store.Direction) int32 {
	m := cs.mark(d)
	if m.epoch != cs.epoch {
		*m = mark{cs.epoch, int32(len(cs.nodes))}
		cs.nodes = append(cs.nodes, pdNode{id: id, allowed: r.ents[d].allowed(dir)})
	}
	return m.node
}

// gatherLocked folds what the walks of the shards in begun expanded since
// the last gather into the gathered subgraph, and queues the next round:
// the entities first reached this time that an allowed shard has not
// expanded yet — the cross-shard frontier, batched per destination shard.
// It returns how many (entity, shard) probes it queued. The caller holds
// the read lock with the translation tables covering the walks.
func (r *Router) gatherLocked(cs *closureScratch, begun uint64, dir store.Direction) int {
	fresh := len(cs.nodes) // nodes from here on are first reached now
	for m := begun; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		mask := uint64(1) << uint(si)
		w := &cs.walks[si]
		from := cs.done[si]
		cs.done[si] = len(w.Order)
		// Record coverage, making nodes of the entities met first.
		cs.at = cs.at[:0]
		for i := from; i < len(w.Order); i++ {
			s := int32(-1)
			if d := r.dirHandleLocked(si, w.Order[i], w.IDs[i]); d >= 0 {
				s = cs.nodeLocked(r, d, w.IDs[i], dir)
				cs.nodes[s].probed |= mask
			}
			cs.at = append(cs.at, s)
		}
		// Accept lists from allowed shards only, merged under the shared
		// dedup rules when an entity's edges span shards. Every neighbour
		// the shard reported was expanded by its walk, now or earlier, so
		// its translation is a table read.
		local := r.local[si]
		for k, s := range cs.at {
			if s < 0 || cs.nodes[s].allowed&mask == 0 {
				continue
			}
			adjFrom := int32(len(cs.adj))
			for _, h := range w.Adj[w.Ends[from+k]:w.Ends[from+k+1]] {
				if n := cs.nodeOf(atomic.LoadInt32(&local[h]) - 1); n >= 0 {
					cs.adj = append(cs.adj, n)
				}
			}
			cs.accept(s, adjFrom)
		}
	}
	npending := 0
	for i := range cs.nodes[fresh:] {
		n := &cs.nodes[fresh+i]
		for m := n.allowed &^ n.probed; m != 0; m &= m - 1 {
			si := bits.TrailingZeros64(m)
			cs.pending[si] = append(cs.pending[si], n.id)
			npending++
		}
	}
	return npending
}

// accept makes adj[from:] node s's neighbour list: adopted as-is when it
// is the first list accepted for s, else merged with the one s has into a
// new list appended to adj, sorted by ID and duplicate-free.
func (cs *closureScratch) accept(s, from int32) {
	n := &cs.nodes[s]
	to := int32(len(cs.adj))
	if !n.listed {
		n.from, n.to, n.listed = from, to, true
		return
	}
	a, b := cs.adj[n.from:n.to], cs.adj[from:to]
	start := to
	for len(a) > 0 && len(b) > 0 {
		switch c := strings.Compare(cs.nodes[a[0]].id, cs.nodes[b[0]].id); {
		case c < 0:
			cs.adj, a = append(cs.adj, a[0]), a[1:]
		case c > 0:
			cs.adj, b = append(cs.adj, b[0]), b[1:]
		default:
			cs.adj, a, b = append(cs.adj, a[0]), a[1:], b[1:]
		}
	}
	cs.adj = append(append(cs.adj, a...), b...)
	n.from, n.to = start, int32(len(cs.adj))
}

// replay walks the gathered subgraph from the seed (node 0) in BFS order,
// the seed reported only where a cycle reaches it, and returns the IDs.
func (cs *closureScratch) replay() []string {
	queue := cs.queue[:0]
	for i, s := -1, int32(0); i < len(queue); i++ { // the seed, then the queue
		if i >= 0 {
			s = queue[i]
		}
		n := &cs.nodes[s]
		for _, m := range cs.adj[n.from:n.to] {
			if !cs.nodes[m].visited {
				cs.nodes[m].visited = true
				queue = append(queue, m)
			}
		}
	}
	cs.queue = queue
	order := make([]string, len(queue))
	for i, s := range queue {
		order[i] = cs.nodes[s].id
	}
	return order
}

// WithTrace wraps the router so every pushdown Closure that executes
// reports its round trace through report — the -trace-rounds debug
// surface of provctl and provd. All other Store methods pass through.
func (r *Router) WithTrace(report func(ClosureTrace)) store.Store {
	if report == nil {
		return r
	}
	return &tracedRouter{Router: r, report: report}
}

// tracedRouter overrides Closure to publish the trace; everything else
// (including Checkpoint) promotes from the embedded router.
type tracedRouter struct {
	*Router
	report func(ClosureTrace)
}

// Closure implements Store, reporting the executed trace on success.
func (t *tracedRouter) Closure(seed string, dir store.Direction) ([]string, error) {
	order, tr, err := t.Router.TracedClosure(seed, dir)
	if err == nil {
		t.report(tr)
	}
	return order, err
}

// Underlying exposes the wrapped router, so stack-walking callers (the
// CLIs' unwrap helpers) can reach it.
func (t *tracedRouter) Underlying() store.Store { return t.Router }

// --- Store: aggregates -------------------------------------------------------

// Stats implements Store: entity counts come from the directory (shared
// entities counted once), volumes sum across shards.
func (r *Router) Stats() (store.Stats, error) {
	r.mu.RLock()
	st := store.Stats{
		Runs:       len(r.runShard),
		Artifacts:  r.nArt,
		Executions: r.nExec,
	}
	r.mu.RUnlock()
	for _, s := range r.shards {
		sub, err := s.Stats()
		if err != nil {
			return store.Stats{}, err
		}
		st.Events += sub.Events
		st.Annotations += sub.Annotations
		st.Bytes += sub.Bytes
	}
	return st, nil
}

// Name implements Store, e.g. "sharded(4×file)".
func (r *Router) Name() string { return r.name }

// Close implements Store, draining any in-flight auto-checkpoint before
// closing every shard and the manifest journal.
func (r *Router) Close() error {
	r.autoCkpt.Drain()
	var errs []error
	for _, s := range r.shards {
		errs = append(errs, s.Close())
	}
	if r.manifest != nil {
		errs = append(errs, r.manifest.Close())
	}
	return errors.Join(errs...)
}
