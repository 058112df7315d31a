package shardedstore

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/store"
)

// Dir returns the router's root directory ("" for NewMem routers).
func (r *Router) Dir() string { return r.dir }

// FileShard returns shard i as the file-backed store replication ships
// from and applies to, or an error for memory-backed routers.
func (r *Router) FileShard(i int) (*store.FileStore, error) {
	if i < 0 || i >= len(r.shards) {
		return nil, fmt.Errorf("shardedstore: shard %d outside [0,%d)", i, len(r.shards))
	}
	if r.files == nil {
		return nil, fmt.Errorf("shardedstore: shard %d is %s, not file-backed — replication needs a durable log", i, r.shards[i].Name())
	}
	return r.files[i], nil
}

// ApplyReplicated folds a shipped batch of the given shard's primary log
// into that shard and then into the router's own placement and directory,
// returning the decoded run logs and the shard's new committed offset.
// Shard placement is the primary's: the batch lands on the shard it was
// shipped for, whatever the follower's own placement rule would pick, and
// the per-shard run counts follow it, so a promoted follower places its
// first runs as the primary would have.
//
// The manifest journal records the runs in apply order. Per-shard
// streams are independent, so a follower's cross-shard manifest order
// can differ from the primary's — the same advisory skew a journal-
// missed run has after a primary crash (see OpenWith): run data never
// depends on it, only cross-shard generator tie-break replay order.
func (r *Router) ApplyReplicated(shard int, data []byte) ([]*provenance.RunLog, int64, error) {
	fs, err := r.FileShard(shard)
	if err != nil {
		return nil, 0, err
	}
	logs, end, err := fs.ApplyReplicated(data)
	if err != nil {
		return nil, 0, err
	}
	r.mu.Lock()
	for _, l := range logs {
		r.indexLocked(l, shard)
		if r.manifest != nil {
			_, _ = r.manifest.WriteString(l.Run.ID + "\n")
		}
	}
	r.mu.Unlock()
	for range logs {
		r.autoCkpt.Tick(r.Checkpoint)
	}
	return logs, end, nil
}
