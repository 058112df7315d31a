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
// StoreDir, with the configured durability (none or group-commit WAL)
// and automatic checkpointing, optionally topped with a persistent closure
// cache whose snapshot lives next to the log. The returned cleanup closes
// the whole stack.
//
// Layout safety: a directory written sharded must be reopened with the
// same Shards value — a mismatch (including opening a sharded directory
// unsharded, or vice versa) is a loud error, never a silent misroute.
func OpenPersistentStore(opt Options) (store.Store, func() error, error) {
	sk, err := openPersistent(opt)
	if err != nil {
		return nil, nil, err
	}
	return sk.top, sk.close, nil
}

// OpenFollowerStore assembles the read-replica storage stack provd's
// follower role serves from: a local store bootstrapped from — and kept
// a byte prefix of — the primary at Options.Primary (see
// internal/store/replica), optionally topped with a closure cache whose
// memoized closures patch live as replicated runs fold (the cache's delta
// path is the follower's first observer). The background shipper is
// already started; the returned cleanup stops it and closes the stack.
func OpenFollowerStore(opt Options) (store.Store, *replica.Follower, func() error, error) {
	sk, err := openFollower(opt)
	if err != nil {
		return nil, nil, nil, err
	}
	return sk.top, sk.follower, sk.close, nil
}

// stack is an assembled store stack, the layers a Node keeps a handle on
// (nil when absent), and the function that closes it all.
type stack struct {
	top      store.Store
	cache    *closurecache.Cache
	follower *replica.Follower
	close    func() error
}

// memStore is the in-memory backing store NewSystem and OpenNode share:
// a MemStore, or a Shards-way router reporting the rounds of every
// pushdown closure to TraceRounds.
func memStore(opt Options) store.Store {
	if opt.Shards > 1 {
		return shardedstore.NewMem(opt.Shards).WithTrace(opt.TraceRounds)
	}
	return store.NewMemStore()
}

// cached tops backing with the closure cache when opt enables one; it
// snapshots into StoreDir and drives the stack's run-count checkpoints
// (see fileOptions).
func cached(backing store.Store, opt Options) stack {
	sk := stack{top: backing, close: backing.Close}
	if opt.EnableClosureCache {
		sk.cache = closurecache.New(backing, closurecache.Options{
			SnapshotDir:     opt.StoreDir,
			CheckpointEvery: opt.CheckpointEvery,
		})
		sk.top, sk.close = sk.cache, sk.cache.Close
	}
	return sk
}

// fileOptions is what every file-backed layer opens with. Under a closure
// cache the backing layers must not double-checkpoint on the run count
// the cache drives: its Checkpoint snapshots the store beneath it too.
func fileOptions(opt Options) store.FileOptions {
	fo := store.FileOptions{Durability: opt.Durability}
	if !opt.EnableClosureCache {
		fo.CheckpointEvery = opt.CheckpointEvery
	}
	return fo
}

func openPersistent(opt Options) (stack, error) {
	if opt.StoreDir == "" {
		return stack{}, fmt.Errorf("core: OpenPersistentStore needs Options.StoreDir")
	}
	n, unsharded := shardedstore.DetectShards(opt.StoreDir)
	switch {
	case opt.Shards > 1 || (n == 1 && !unsharded):
		// A single-shard router layout (shard-000 + meta) is still a
		// router directory, not a plain FileStore one.
		r, err := shardedstore.OpenWith(opt.StoreDir, max(opt.Shards, 1), fileOptions(opt))
		if err != nil {
			return stack{}, err
		}
		// WithTrace sits between the router and the closure cache, so a
		// cache miss that reaches the router still reports its rounds.
		return cached(r.WithTrace(opt.TraceRounds), opt), nil
	case n > 1 && !unsharded:
		return stack{}, fmt.Errorf("core: %s was written with %d shards; reopen it with Shards/-shards %d", opt.StoreDir, n, n)
	}
	fs, err := store.OpenFileStoreWith(opt.StoreDir, fileOptions(opt))
	if err != nil {
		return stack{}, err
	}
	return cached(fs, opt), nil
}

func openFollower(opt Options) (stack, error) {
	if opt.StoreDir == "" || opt.Primary == "" {
		return stack{}, fmt.Errorf("core: OpenFollowerStore needs Options.StoreDir and Options.Primary")
	}
	f, err := replica.Open(replica.Options{
		Dir:     opt.StoreDir,
		Primary: opt.Primary,
		Store:   fileOptions(opt),
		Poll:    opt.ReplicaPoll,
	})
	if err != nil {
		return stack{}, err
	}
	sk := cached(f.Store(), opt)
	sk.follower = f
	if sk.cache != nil {
		f.Observe(sk.cache.ApplyDelta)
	}
	// The top layer owns the close chain (a cache's Close drains its auto
	// checkpointer and closes the backing store), so the follower only
	// stops its shipper — closing it too would double-close the store.
	closeStack := sk.close
	sk.close = func() error {
		f.Stop()
		return closeStack()
	}
	f.Start()
	return sk, nil
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
	// The stack arrives with its closure cache layered; NewSystem must not
	// stack a second, cold one on top.
	opt.Store, opt.EnableClosureCache = st, false
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
