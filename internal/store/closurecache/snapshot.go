package closurecache

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/wal"
)

// Closure-cache persistence: the memoized closures and the generation
// counter snapshot to a checkpoint file next to the store's log, so a
// daemon restart serves warm closures immediately instead of recomputing
// them cold — the closure-cache-persistence ROADMAP item, and the restart
// analogue of the ingest-time patching this package already does.
//
// The snapshot records the run prefix it was computed over (count + last
// run ID). Loading validates that prefix against the reopened store's run
// list and then REPLAYS the suffix runs through the same delta-patching
// path a live ingest uses, so a snapshot taken N runs ago is still
// restored — warm and correct — rather than discarded. Only a diverged
// history (different runs, truncated log) drops the snapshot, because the
// log, not the snapshot, is authoritative.

// snapshotFileName keeps its name from the JSON formats, as the store's
// checkpoint does, so an upgraded directory holds one snapshot, not two.
const snapshotFileName = "closures.json"

// snapshotVersion is the format this build writes and the only one it
// restores. Versions 1 and 2 were JSON: version 1 spelled out every member
// of every closure as a quoted ID and carried no version field, and
// version 2 held version 3's columns as JSON arrays. A JSON payload opens
// with '{', which reads here as version −62, so it leaves the cache cold
// like any other unreadable snapshot; the next Checkpoint overwrites it.
const snapshotVersion = 3

// cacheSnapshot is the on-disk form of the memoized closure state: the run
// prefix it covers, then the live entries as a dictionary plus handle
// columns. IDs holds each ID a live entry references once, in first-use
// order; entry i is the closure of IDs[Roots[i]] in direction Dirs[i], and
// its members are the next Lens[i] handles of Refs, in visit order. encode
// writes the fields as wal columns in declaration order.
type cacheSnapshot struct {
	Version    int
	Generation uint64
	RunCount   int
	LastRun    string
	IDs        []string
	Roots      []int32
	Dirs       []int32
	Lens       []int32
	Refs       []int32
}

// encode is the snapshot's payload: its fields in declaration order, the
// generation as the int64 of the same bits, LastRun as a dictionary of one
// and IDs front-coded.
func (s *cacheSnapshot) encode() []byte {
	var w wal.ColumnWriter
	w.Int(int64(s.Version))
	w.Int(int64(s.Generation))
	w.Int(int64(s.RunCount))
	w.Strings([]string{s.LastRun})
	w.Strings(s.IDs)
	for _, col := range [][]int32{s.Roots, s.Dirs, s.Lens, s.Refs} {
		w.Ints(col)
	}
	return w.Bytes()
}

// decodeSnapshot reads a payload encode wrote, refusing another version
// before reading past it and any payload that is not exactly the columns
// encode writes. Whether the columns agree is restoreIndex's to check.
func decodeSnapshot(payload []byte) (*cacheSnapshot, bool) {
	r := wal.NewColumnReader(payload)
	s := &cacheSnapshot{Version: int(r.Int())}
	if s.Version != snapshotVersion {
		return nil, false
	}
	s.Generation = uint64(r.Int())
	s.RunCount = int(r.Int())
	lastRun := r.Strings()
	s.IDs = r.Strings()
	for _, col := range []*[]int32{&s.Roots, &s.Dirs, &s.Lens, &s.Refs} {
		*col = r.Ints()
	}
	if r.Err() != nil || len(lastRun) != 1 {
		return nil, false
	}
	s.LastRun = lastRun[0]
	return s, true
}

// indexCopy is an Index's live entries in its own handles, copied under
// the owner's lock so that encoding can happen after it is released: the
// members of keys[i] are the next lens[i] handles of refs. ids is the
// dictionary as of the copy; the dictionary only grows by appending, so
// the prefix the copy references never changes under it.
type indexCopy struct {
	ids   []string
	keys  []Key
	roots []int32
	lens  []int32
	refs  []int32
}

// copyLive copies the live entries; the owner holds at least its read lock.
func (ix *Index) copyLive() *indexCopy {
	n := 0
	for _, e := range ix.entries {
		n += len(e.order)
	}
	c := &indexCopy{
		ids:   ix.ids,
		keys:  make([]Key, 0, len(ix.entries)),
		roots: make([]int32, 0, len(ix.entries)),
		lens:  make([]int32, 0, len(ix.entries)),
		refs:  make([]int32, 0, n),
	}
	for k, e := range ix.entries {
		c.keys = append(c.keys, k)
		c.roots = append(c.roots, e.root)
		c.lens = append(c.lens, int32(len(e.order)))
		c.refs = append(c.refs, e.order...)
	}
	return c
}

// columns writes the copied entries into snap in file handles. Entries go
// in key order, so the same closures always encode to the same bytes, and
// the dictionary is renumbered in first-use order over them, keeping only
// the IDs an entry references.
func (c *indexCopy) columns(snap *cacheSnapshot) {
	at := make([]int, len(c.keys))
	off := 0
	for i, l := range c.lens {
		at[i] = off
		off += int(l)
	}
	perm := make([]int, len(c.keys))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		return cmp.Or(strings.Compare(c.keys[a].ID, c.keys[b].ID), cmp.Compare(c.keys[a].Dir, c.keys[b].Dir))
	})
	snap.IDs = []string{}
	remap := make([]int32, len(c.ids)) // file handle + 1; 0 while unwritten
	fileHandle := func(h int32) int32 {
		if remap[h] == 0 {
			snap.IDs = append(snap.IDs, c.ids[h])
			remap[h] = int32(len(snap.IDs))
		}
		return remap[h] - 1
	}
	snap.Roots = make([]int32, 0, len(perm))
	snap.Dirs = make([]int32, 0, len(perm))
	snap.Lens = make([]int32, 0, len(perm))
	snap.Refs = make([]int32, 0, len(c.refs))
	for _, i := range perm {
		snap.Roots = append(snap.Roots, fileHandle(c.roots[i]))
		snap.Dirs = append(snap.Dirs, int32(c.keys[i].Dir))
		snap.Lens = append(snap.Lens, c.lens[i])
		for _, h := range c.refs[at[i] : at[i]+int(c.lens[i])] {
			snap.Refs = append(snap.Refs, fileHandle(h))
		}
	}
}

// restoreIndex builds an Index from a snapshot's columns, installing the
// first max entries, or reports false — building nothing — unless the
// payload is something columns could have written: the right version,
// columns of one length, distinct IDs, every handle in range, lengths that
// are non-negative and sum to len(Refs), every direction 0 (Up) or 1
// (Down), no key twice and no member twice in one closure. The CRC already
// rules out torn bytes; these checks rule out a file from a build with
// other invariants, which would otherwise surface as a panic or a wrong
// answer long after open. Nothing is re-interned: IDs becomes the
// dictionary and each entry's order aliases Refs.
func restoreIndex(s *cacheSnapshot, max int) (*Index, bool) {
	n, nIDs := len(s.Roots), len(s.IDs)
	if s.Version != snapshotVersion || len(s.Dirs) != n || len(s.Lens) != n {
		return nil, false
	}
	ix := &Index{entries: make(map[Key]*Entry, min(n, max)), ids: s.IDs, handles: make(map[string]int32, nIDs)}
	for h, id := range s.IDs {
		ix.handles[id] = int32(h)
	}
	if len(ix.handles) != nIDs {
		return nil, false // a dictionary duplicate
	}
	keys := make(map[Key]struct{}, n)
	lastIn := make([]int32, nIDs) // 1 + the last entry listing each handle
	at := 0
	for i, root := range s.Roots {
		dir, l := s.Dirs[i], s.Lens[i]
		if root < 0 || int(root) >= nIDs || (dir != int32(store.Up) && dir != int32(store.Down)) ||
			l < 0 || int(l) > len(s.Refs)-at {
			return nil, false
		}
		k := Key{ID: s.IDs[root], Dir: store.Direction(dir)}
		if _, dup := keys[k]; dup {
			return nil, false
		}
		keys[k] = struct{}{}
		order := s.Refs[at : at+int(l) : at+int(l)]
		at += int(l)
		for _, h := range order {
			if h < 0 || int(h) >= nIDs || lastIn[h] == int32(i+1) {
				return nil, false
			}
			lastIn[h] = int32(i + 1)
		}
		if i < max {
			ix.install(&Entry{Key: k, root: root, order: order})
		}
	}
	if at != len(s.Refs) {
		return nil, false
	}
	return ix, true
}

// appliedRuns is the run prefix a snapshot may claim: the deltas of
// Runs()[:prefix] are all folded into the memoized state, and beyond holds
// the runs folded past it. The store's run list can run ahead of the
// closures — a follower folds a replicated run into its store, outside the
// ingest gate, before the cache's ApplyDelta sees it — so a snapshot
// records this prefix rather than the store's run count, and a restart
// replays what it lacks.
type appliedRuns struct {
	mu     sync.Mutex
	prefix int
	beyond map[string]struct{}
}

// mark records that run's delta is folded in.
func (a *appliedRuns) mark(run string) {
	a.mu.Lock()
	a.beyond[run] = struct{}{}
	a.mu.Unlock()
}

// advance extends the prefix over the runs marked folded and returns it.
// A mark for a run already inside the prefix — one the store held when the
// cache was built but whose delta arrived after — is never reached by that
// walk; such marks are dropped once the marks outnumber the runs past the
// prefix.
func (a *appliedRuns) advance(runs []string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prefix = min(a.prefix, len(runs))
	for a.prefix < len(runs) {
		if _, ok := a.beyond[runs[a.prefix]]; !ok {
			break
		}
		delete(a.beyond, runs[a.prefix])
		a.prefix++
	}
	if past := runs[a.prefix:]; len(a.beyond) > len(past) {
		kept := make(map[string]struct{}, len(past))
		for _, r := range past {
			if _, ok := a.beyond[r]; ok {
				kept[r] = struct{}{}
			}
		}
		a.beyond = kept
	}
	return a.prefix
}

// SnapshotPath returns the file a cache with SnapshotDir dir persists to.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotFileName) }

// Checkpoint implements store.Store: it checkpoints the wrapped store
// first, then snapshots the cache's closures and generation counter next
// to the log. With no SnapshotDir configured only the store checkpoint
// happens.
func (c *Cache) Checkpoint() error {
	if err := c.Store.Checkpoint(); err != nil {
		return err
	}
	if c.opt.SnapshotDir == "" {
		return nil
	}
	return c.saveSnapshot()
}

// saveSnapshot writes the current closures and generation to the snapshot
// file. Holding the ingest gate exclusively quiesces in-flight ingests:
// PutRunLog commits to the backing store before taking the cache lock, so
// without the gate Runs() could already include a run whose delta patch
// is still pending. The recorded run count is the applied prefix, not the
// store's count, which covers what the gate cannot — a follower's run
// folded into the store before ApplyDelta — so the recorded prefix never
// covers a run whose delta the closures miss, and loadSnapshot (which
// replays runs[RunCount:]) never serves them stale. The gate is released
// as soon as the run list is read — later commits append past the
// recorded prefix and their delta applies need the write lock, which the
// read lock held across the copy excludes — so ingests keep reaching the
// store's group-commit batches while the entries' handles are copied, and
// the encoding and the file write happen outside every lock.
func (c *Cache) saveSnapshot() error {
	c.ingestGate.Lock()
	c.mu.RLock()
	runs, err := c.Store.Runs()
	c.ingestGate.Unlock()
	if err != nil {
		c.mu.RUnlock()
		return fmt.Errorf("closurecache: snapshot runs: %w", err)
	}
	n := c.applied.advance(runs)
	snap := cacheSnapshot{Version: snapshotVersion, Generation: c.generation, RunCount: n}
	if n > 0 {
		snap.LastRun = runs[n-1]
	}
	live := c.idx.copyLive()
	c.mu.RUnlock()
	live.columns(&snap)
	return wal.SaveCheckpoint(SnapshotPath(c.opt.SnapshotDir), snap.encode())
}

// loadSnapshot restores a persisted snapshot at construction time: the
// saved prefix must match the store's current run list; any suffix runs
// ingested after the snapshot replay through the live delta-patching path
// (the one hazard rule never needed the pre-ingest generator state, which
// is gone here). Best-effort: a missing, corrupt, diverged or
// other-version snapshot leaves the cache cold, never broken. Either way
// the runs the store holds now count as applied.
func (c *Cache) loadSnapshot() {
	runs, err := c.Store.Runs()
	if err != nil {
		return
	}
	c.applied.prefix = len(runs)
	payload, _ := wal.LoadCheckpoint(SnapshotPath(c.opt.SnapshotDir)) // none decodes as no version
	snap, ok := decodeSnapshot(payload)
	if !ok {
		return
	}
	if snap.RunCount < 0 || len(runs) < snap.RunCount {
		return
	}
	if snap.RunCount > 0 && runs[snap.RunCount-1] != snap.LastRun {
		return // diverged history: the snapshot describes a different store
	}
	idx, ok := restoreIndex(snap, c.opt.MaxClosures)
	if !ok {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx = idx
	c.restored.Add(uint64(idx.Len()))
	c.generation = snap.Generation

	// Replay the suffix the snapshot missed, exactly as live ingests
	// would have patched it: one scan from the snapshot's run count on,
	// so the prefix it covers is never read. A run the scan finds past
	// the list read above reached the store meanwhile; it is applied now.
	at := snap.RunCount
	err = c.Store.ScanLogs(snap.RunCount, func(l *provenance.RunLog) error {
		c.applyDeltaLocked(l)
		c.generation++
		if at++; at > len(runs) {
			c.applied.mark(l.Run.ID)
		}
		return nil
	})
	if err != nil {
		// A half-readable store: drop everything rather than serve
		// closures that missed a patch.
		c.flushLocked()
	}
}
