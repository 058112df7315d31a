// Package replica implements WAL log-shipping replication: a primary
// serves record-aligned chunks of each file store's committed append log
// (plus checkpoint snapshots) over provd's v1 HTTP API, and followers
// append those chunks byte-for-byte into local stores, folding each
// record through the same watermark machinery a local ingest uses.
//
// The design leans entirely on invariants the store stack already
// maintains:
//
//   - The fold watermark (FileStore.CommittedOffset) marks a stable,
//     record-aligned prefix — failed WAL batches only truncate bytes at
//     or above it — so a primary can serve [0, watermark) with plain
//     positional reads, concurrent with its own writers.
//   - A follower's log is at every moment an exact byte prefix of the
//     primary's, so its own committed size doubles as its replication
//     cursor: resuming after a crash is "stream from my local size", and
//     a torn tail from a mid-apply kill is healed by the ordinary reopen
//     truncation scan before the cursor is read.
//   - Checkpoints bound catch-up: a fresh follower installs the
//     primary's checkpoint snapshot before opening its store, so open
//     folds indexes from the snapshot and replays only the log suffix —
//     the same O(suffix) path a primary reopen takes.
//
// Sharded primaries replicate per shard: each shard's log ships as an
// independent stream, and the follower's router adopts the primary's
// placement — a shipped run lands on the shard it was shipped from — and
// folds its directory and per-shard run counts from it.
//
// State derived from the store — the closure cache, standing-query
// subscriptions — reaches replicated runs through one hook: the follower's
// append-only observer list (Follower.Observe), called with every run log
// after it folds into the store.
package replica

import (
	"fmt"
	"os"

	"repro/internal/collab/api"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// Source adapts a primary's store to the replication read model:
// per-shard committed-log chunks, checkpoint snapshots and positions.
// It implements collab.ReplicationSource.
type Source struct {
	shards  []*store.FileStore
	sharded bool
}

// NewSource unwraps cache and trace layers down to the file-backed
// store (single FileStore or sharded router) and exposes it for
// shipping. Memory-backed stores are rejected: replication ships a
// durable log.
func NewSource(s store.Store) (*Source, error) {
	s = store.Unwrap(s)
	switch st := s.(type) {
	case *store.FileStore:
		return &Source{shards: []*store.FileStore{st}}, nil
	case *shardedstore.Router:
		src := &Source{sharded: true}
		for i := 0; i < st.NumShards(); i++ {
			fs, err := st.FileShard(i)
			if err != nil {
				return nil, err
			}
			src.shards = append(src.shards, fs)
		}
		return src, nil
	}
	return nil, fmt.Errorf("replica: %s store has no file-backed log to ship (open it with a store directory)", s.Name())
}

// Shards returns the number of independent log streams.
func (s *Source) Shards() int { return len(s.shards) }

func (s *Source) shard(i int) (*store.FileStore, error) {
	if i < 0 || i >= len(s.shards) {
		return nil, fmt.Errorf("replica: shard %d outside [0,%d)", i, len(s.shards))
	}
	return s.shards[i], nil
}

// ReadLog implements collab.ReplicationSource.
func (s *Source) ReadLog(shard int, from int64, maxBytes int) ([]byte, int64, error) {
	fs, err := s.shard(shard)
	if err != nil {
		return nil, 0, err
	}
	return fs.ReadCommitted(from, maxBytes)
}

// CheckpointBytes implements collab.ReplicationSource, serving the
// shard's checkpoint file verbatim. SaveCheckpoint installs snapshots
// atomically (write-temp, fsync, rename), so a concurrent read observes
// either the previous or the new complete snapshot, never a torn one.
func (s *Source) CheckpointBytes(shard int) ([]byte, bool, error) {
	fs, err := s.shard(shard)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(store.CheckpointPath(fs.Dir()))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("replica: read shard %d checkpoint: %w", shard, err)
	}
	return data, true, nil
}

// Positions implements collab.ReplicationSource: the primary is its own
// log, so Applied equals Committed and Lag is zero.
func (s *Source) Positions() []api.ShardPosition {
	out := make([]api.ShardPosition, len(s.shards))
	for i, fs := range s.shards {
		committed := fs.CommittedOffset()
		ck := int64(-1)
		if off, ok := fs.LastCheckpoint(); ok {
			ck = off
		}
		out[i] = api.ShardPosition{Shard: i, Committed: committed, Applied: committed, Checkpoint: ck}
	}
	return out
}

// Status reports the primary-side replication status, probing each
// configured replica URL best-effort via probe (nil: no probing).
func (s *Source) Status(replicas []string, probe func(url string) (*api.ReplicationStatus, error)) api.ReplicationStatus {
	rs := api.ReplicationStatus{Role: api.RolePrimary, Sharded: s.sharded, Shards: s.Positions()}
	for _, u := range replicas {
		p := api.ReplicaProbe{URL: u}
		if probe != nil {
			if st, err := probe(u); err != nil {
				p.Error = err.Error()
			} else {
				p.Status = st
			}
		}
		rs.Replicas = append(rs.Replicas, p)
	}
	return rs
}
