// Package scan streams runs out of any provenance store for the query
// engines' leaf table scans and reports how many shards a scan ran side
// by side. Every store scans itself (Store.ScanLogs, Store.ScanRows):
// a file store from its log or its row image, a sharded router one such
// stream per shard in parallel, merged into its global accepted order, so
// results are deterministic and identical to a sequential scan; wrappers
// inherit the scan of the store they wrap.
package scan

import (
	"repro/internal/provenance"
	"repro/internal/store"
)

// Unwrap is store.Unwrap.
func Unwrap(s store.Store) store.Store { return store.Unwrap(s) }

// ShardedLogs is s.ScanLogs from the first run plus a report of how many
// shards were scanned in parallel (0 for an unsharded store) — the explain
// surfaces print it. fn must not modify the log.
func ShardedLogs(s store.Store, fn func(*provenance.RunLog) error) (shards int, err error) {
	return parallelShards(s), s.ScanLogs(0, fn)
}

// ShardedRows is ShardedLogs over s.ScanRows: fn sees each run's rows,
// valid until it returns, in the store's global insertion order.
func ShardedRows(s store.Store, fn func(*store.RunRows) error) (shards int, err error) {
	return parallelShards(s), s.ScanRows(fn)
}

// parallelShards is how many shards a scan of s runs side by side: 0 for
// an unsharded store.
func parallelShards(s store.Store) int {
	if r, ok := Unwrap(s).(interface{ NumShards() int }); ok && r.NumShards() > 1 {
		return r.NumShards()
	}
	return 0
}
