package closurecache

import (
	"fmt"
	"path/filepath"

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

const snapshotFileName = "closures.json"

// snapshotEntry is one persisted closure.
type snapshotEntry struct {
	ID    string   `json:"id"`
	Dir   int      `json:"dir"`
	Order []string `json:"order"`
}

// cacheSnapshot is the on-disk form of the memoized closure state.
type cacheSnapshot struct {
	Generation uint64          `json:"generation"`
	RunCount   int             `json:"run_count"`
	LastRun    string          `json:"last_run"`
	Closures   []snapshotEntry `json:"closures"`
}

// SnapshotPath returns the file a cache with SnapshotDir dir persists to.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotFileName) }

// Checkpoint implements store.Checkpointer: it checkpoints the wrapped
// store first (when it can), then snapshots the cache's closures and
// generation counter next to the log. With no SnapshotDir configured only
// the store checkpoint happens.
func (c *Cache) Checkpoint() error {
	if ck, ok := c.Store.(store.Checkpointer); ok {
		if err := ck.Checkpoint(); err != nil {
			return err
		}
	}
	if c.opt.SnapshotDir == "" {
		return nil
	}
	return c.saveSnapshot()
}

// saveSnapshot writes the current closures and generation to the snapshot
// file. Holding the ingest gate exclusively quiesces in-flight ingests:
// PutRunLog commits to the backing store before taking the cache lock, so without the gate Runs() could already include a run
// whose delta patch is still pending — the snapshot would record a
// RunCount covering that run while its closures miss the delta, and
// loadSnapshot (which replays only runs[RunCount:]) would serve those
// closures stale forever. With the gate held, every run the store
// reports is folded into the captured entries, so the recorded prefix
// and the closures are mutually consistent. The gate is released as soon
// as the run prefix is read — later commits append past the recorded
// prefix and their delta applies need the write lock, which the read
// lock held across the copy excludes — so ingests keep reaching the
// store's group-commit batches while the entries are copied, and the
// file write happens outside every lock.
func (c *Cache) saveSnapshot() error {
	c.ingestGate.Lock()
	c.mu.RLock()
	runs, err := c.Store.Runs()
	c.ingestGate.Unlock()
	if err != nil {
		c.mu.RUnlock()
		return fmt.Errorf("closurecache: snapshot runs: %w", err)
	}
	snap := cacheSnapshot{
		Generation: c.generation,
		RunCount:   len(runs),
	}
	if len(runs) > 0 {
		snap.LastRun = runs[len(runs)-1]
	}
	for k, e := range c.idx.entries {
		snap.Closures = append(snap.Closures, snapshotEntry{
			ID:    k.ID,
			Dir:   int(k.Dir),
			Order: append([]string(nil), e.order...),
		})
	}
	c.mu.RUnlock()
	return wal.SaveCheckpoint(SnapshotPath(c.opt.SnapshotDir), snap)
}

// loadSnapshot restores a persisted snapshot at construction time: the
// saved prefix must match the store's current run list; any suffix runs
// ingested after the snapshot replay through the live delta-patching path
// (the one hazard rule never needed the pre-ingest generator state, which
// is gone here). Best-effort: a missing, corrupt or diverged snapshot leaves
// the cache cold, never broken.
func (c *Cache) loadSnapshot() {
	var snap cacheSnapshot
	ok, err := wal.LoadCheckpoint(SnapshotPath(c.opt.SnapshotDir), &snap)
	if err != nil || !ok {
		return
	}
	runs, err := c.Store.Runs()
	if err != nil || len(runs) < snap.RunCount {
		return
	}
	if snap.RunCount > 0 && runs[snap.RunCount-1] != snap.LastRun {
		return // diverged history: the snapshot describes a different store
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, se := range snap.Closures {
		if c.idx.Len() >= c.opt.MaxClosures {
			break
		}
		c.idx.Admit(Key{ID: se.ID, Dir: store.Direction(se.Dir)}, se.Order)
		c.restored.Add(1)
	}
	c.generation = snap.Generation

	// Replay the suffix the snapshot missed, exactly as live ingests
	// would have patched it: one scan from the snapshot's run count on,
	// so the prefix it covers is never read.
	err = store.ScanLogs(store.Unwrap(c.Store), snap.RunCount, func(l *provenance.RunLog) error {
		c.applyDeltaLocked(l)
		c.generation++
		return nil
	})
	if err != nil {
		// A half-readable store: drop everything rather than serve
		// closures that missed a patch.
		c.flushLocked()
	}
}
