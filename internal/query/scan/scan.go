// Package scan streams run logs out of any provenance store for the query
// engines' leaf table scans. It peels layering wrappers (closure cache,
// standing-query tap, tracing shims) off the store and iterates what is
// underneath through store.ScanLogs: one sequential pass over a file
// store's log, one such pass per shard in parallel on a sharded router
// (merged into the router's global accepted order, so results are
// deterministic and identical to a sequential scan), and a run-at-a-time
// walk on the resident backends.
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
	if r, ok := base.(interface{ NumShards() int }); ok && r.NumShards() > 1 {
		shards = r.NumShards()
	}
	return shards, store.ScanLogs(base, 0, fn)
}
