// Package scan streams runs out of any provenance store for the query
// engines' leaf table scans. It peels layering wrappers (closure cache,
// standing-query tap, tracing shims) off the store and iterates what is
// underneath: as rows through store.ScanRows (a file store's row image,
// one such stream per shard in parallel on a sharded router, flattened
// logs on the resident backends), or as decoded logs through
// store.ScanLogs (one sequential pass over a file store's log, one per
// shard on a router). A router merges its shards' streams into its global
// accepted order, so results are deterministic and identical to a
// sequential scan.
package scan

import (
	"repro/internal/provenance"
	"repro/internal/store"
)

// Unwrap is store.Unwrap.
func Unwrap(s store.Store) store.Store { return store.Unwrap(s) }

// Logs invokes fn once per stored run log, in the store's global insertion
// order. fn must not modify the log (a resident backend hands out its own
// copy). On a sharded router the per-shard scans run concurrently
// (ShardedLogs reports how many); the emit order is still the global one.
// Iteration stops at fn's first error.
func Logs(s store.Store, fn func(*provenance.RunLog) error) error {
	return store.ScanLogs(Unwrap(s), 0, fn)
}

// ShardedLogs is Logs plus a report of how many shards were scanned in
// parallel (0 for an unsharded store) — the explain surfaces print it.
func ShardedLogs(s store.Store, fn func(*provenance.RunLog) error) (shards int, err error) {
	base := Unwrap(s)
	return parallelShards(base), store.ScanLogs(base, 0, fn)
}

// ShardedRows is ShardedLogs over store.ScanRows: fn sees each run's rows,
// valid until it returns, in the store's global insertion order.
func ShardedRows(s store.Store, fn func(*store.RunRows) error) (shards int, err error) {
	base := Unwrap(s)
	return parallelShards(base), store.ScanRows(base, fn)
}

// parallelShards is how many shards a scan of base runs side by side: 0
// for an unsharded store.
func parallelShards(base store.Store) int {
	if r, ok := base.(interface{ NumShards() int }); ok && r.NumShards() > 1 {
		return r.NumShards()
	}
	return 0
}
