package core

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/replica"
	"repro/internal/store/shardedstore"
)

// OpenPersistentStore assembles the file-backed storage stack provctl and
// provd share from Options: a single FileStore or a sharded router under
// StoreDir, with the configured durability (per-append fsync or
// group-commit WAL) and automatic checkpointing, optionally topped with a
// persistent closure cache whose snapshot lives next to the log. The
// returned cleanup closes the whole stack.
//
// Layout safety: a directory written sharded must be reopened with the
// same Shards value — a mismatch (including opening a sharded directory
// unsharded, or vice versa) is a loud error, never a silent misroute.
func OpenPersistentStore(opt Options) (store.Store, func() error, error) {
	if opt.StoreDir == "" {
		return nil, nil, fmt.Errorf("core: OpenPersistentStore needs Options.StoreDir")
	}
	fileOpt := store.FileOptions{
		Durability:         opt.Durability,
		CheckpointEvery:    opt.CheckpointEvery,
		CheckpointInterval: opt.CheckpointInterval,
		CheckpointBytes:    opt.CheckpointBytes,
	}
	if opt.EnableClosureCache {
		// The cache layer drives run-count and interval checkpoints for the
		// whole stack (its Checkpoint chains to the backing store), so the
		// backing layers must not double-checkpoint on those clocks. The
		// byte policy stays at the file layer — only it sees appended log
		// bytes — and its checkpoint snapshots the store alone; the cache
		// snapshot refreshes on its own cadence, and a restore replays any
		// gap through the delta path.
		fileOpt.CheckpointEvery = 0
		fileOpt.CheckpointInterval = 0
	}
	var backing store.Store
	if opt.Shards > 1 {
		r, err := shardedstore.OpenWith(opt.StoreDir, opt.Shards, fileOpt)
		if err != nil {
			return nil, nil, err
		}
		// WithTrace sits between the router and the closure cache, so a
		// cache miss that reaches the router still reports its rounds.
		backing = r.WithTrace(opt.TraceRounds)
	} else if n, unsharded := shardedstore.DetectShards(opt.StoreDir); n > 1 && !unsharded {
		return nil, nil, fmt.Errorf("core: %s was written with %d shards; reopen it with Shards/-shards %d", opt.StoreDir, n, n)
	} else if n == 1 && !unsharded {
		// A single-shard router layout (shard-000 + meta) is still a
		// router directory, not a plain FileStore one.
		r, err := shardedstore.OpenWith(opt.StoreDir, 1, fileOpt)
		if err != nil {
			return nil, nil, err
		}
		backing = r.WithTrace(opt.TraceRounds)
	} else {
		fs, err := store.OpenFileStoreWith(opt.StoreDir, fileOpt)
		if err != nil {
			return nil, nil, err
		}
		backing = fs
	}
	st := backing
	if opt.EnableClosureCache {
		st = closurecache.New(backing, closurecache.Options{
			SnapshotDir:        opt.StoreDir,
			CheckpointEvery:    opt.CheckpointEvery,
			CheckpointInterval: opt.CheckpointInterval,
		})
	}
	return st, st.Close, nil
}

// OpenFollowerStore assembles the read-replica storage stack provd's
// follower role serves from: a local store bootstrapped from — and kept
// a byte prefix of — the primary at Options.Primary (see
// internal/store/replica), optionally topped with a closure cache whose
// memoized closures patch live as replicated runs fold (the cache's delta
// path is the follower's first observer). The background shipper is
// already started; the returned cleanup stops it and closes the stack.
func OpenFollowerStore(opt Options) (store.Store, *replica.Follower, func() error, error) {
	if opt.StoreDir == "" {
		return nil, nil, nil, fmt.Errorf("core: OpenFollowerStore needs Options.StoreDir")
	}
	if opt.Primary == "" {
		return nil, nil, nil, fmt.Errorf("core: OpenFollowerStore needs Options.Primary")
	}
	fileOpt := store.FileOptions{
		Durability:         opt.Durability,
		CheckpointEvery:    opt.CheckpointEvery,
		CheckpointInterval: opt.CheckpointInterval,
		CheckpointBytes:    opt.CheckpointBytes,
	}
	if opt.EnableClosureCache {
		fileOpt.CheckpointEvery = 0
		fileOpt.CheckpointInterval = 0
	}
	f, err := replica.Open(replica.Options{
		Dir:     opt.StoreDir,
		Primary: opt.Primary,
		Store:   fileOpt,
		Poll:    opt.ReplicaPoll,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	st := f.Store()
	cleanup := f.Close
	if opt.EnableClosureCache {
		c := closurecache.New(st, closurecache.Options{
			SnapshotDir:        opt.StoreDir,
			CheckpointEvery:    opt.CheckpointEvery,
			CheckpointInterval: opt.CheckpointInterval,
		})
		f.Observe(c.ApplyDelta)
		st = c
		// The cache owns the close chain (its Close drains the auto
		// checkpointer and closes the backing store), so the follower only
		// stops its shipper — closing it too would double-close the store.
		cleanup = func() error {
			f.Stop()
			return c.Close()
		}
	}
	f.Start()
	return st, f, cleanup, nil
}

// NewPersistentSystem assembles a System over the persistent storage stack
// of OpenPersistentStore. The cleanup closes the store after the System is
// done. Opening an existing store seeds the process-wide entity ID counter
// past every persisted ID, so runs recorded by this process cannot collide
// with runs from earlier CLI invocations into the same directory.
func NewPersistentSystem(opt Options) (*System, func() error, error) {
	st, cleanup, err := OpenPersistentStore(opt)
	if err != nil {
		return nil, nil, err
	}
	if err := seedIDCounter(st); err != nil {
		_ = cleanup()
		return nil, nil, err
	}
	opt.Store = st
	return NewSystem(opt), cleanup, nil
}

// seedIDCounter scans the stored run logs (in parallel across shards) for
// the largest numeric ID suffix over runs, executions and artifacts —
// every kind the collector numbers from one shared counter — and raises
// the counter past it.
func seedIDCounter(st store.Store) error {
	var max uint64
	consider := func(id string) {
		if n, ok := provenance.IDSuffix(id); ok && n > max {
			max = n
		}
	}
	err := st.ScanLogs(0, func(l *provenance.RunLog) error {
		consider(l.Run.ID)
		for _, e := range l.Executions {
			consider(e.ID)
		}
		for _, a := range l.Artifacts {
			consider(a.ID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	provenance.EnsureIDsAtLeast(max)
	return nil
}

// Checkpoint snapshots the system's store (and closure cache, when one is
// layered) to stable storage so the next open replays only the log suffix
// and serves warm closures immediately. A no-op on stores with nothing to
// checkpoint (pure in-memory systems).
func (s *System) Checkpoint() error { return s.Store.Checkpoint() }
