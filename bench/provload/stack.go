package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/query/scan"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/replica"
	"repro/internal/store/shardedstore"
)

// nodeConfig is the subset of provd's flags the workloads vary.
type nodeConfig struct {
	dir             string // -store
	shards          int    // -shards
	cache           bool   // -cache
	durability      store.Durability
	checkpointEvery int    // -checkpoint-every
	role            string // -role: standalone or primary
	tracer          *tracer
}

// node is one assembled provd: the store stack, the handler over it and an
// http.Server on a loopback listener.
type node struct {
	cfg   nodeConfig
	top   store.Store // what provd hands collab.NewRepository; ingest ops call it
	mgr   *standing.Manager
	cache *closurecache.Cache // nil without -cache
	files []*store.FileStore  // the shard logs, for WAL and checkpoint counters
	url   string

	srv     *http.Server
	served  chan error
	closeSt func() error
}

// openNode assembles a node the way cmd/provd/main.go does for the
// standalone and primary roles: core.OpenPersistentStore, the replication
// source and failover coordinator (primary), standing.NewManager and
// NewTap, collab.NewRepository, collab.NewHandlerWith. With a tracer the
// store layers are assembled one by one, as core.OpenPersistentStore does
// it, with a seam between each pair; seam_test.go holds the two stacks to
// the same behaviour.
func openNode(cfg nodeConfig) (*node, error) {
	n := &node{cfg: cfg}
	opts := core.Options{
		StoreDir:           cfg.dir,
		Shards:             cfg.shards,
		Durability:         cfg.durability,
		CheckpointEvery:    cfg.checkpointEvery,
		EnableClosureCache: cfg.cache,
	}
	var st store.Store
	var err error
	if cfg.tracer == nil {
		st, n.closeSt, err = core.OpenPersistentStore(opts)
	} else {
		st, err = openTracedStore(opts, cfg.tracer)
		if err == nil {
			n.closeSt = st.Close
		}
	}
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*node, error) {
		_ = n.closeSt()
		return nil, err
	}

	hopts := collab.HandlerOptions{
		SlowRequest: time.Second, // provd's -slow-query default
		Node: collab.NodeInfo{
			Role: cfg.role, Shards: cfg.shards, Cache: cfg.cache, Start: time.Now(),
			StoreDir: cfg.dir, Durability: cfg.durability.String(), Checkpoint: "disabled",
		},
	}
	if cfg.checkpointEvery > 0 {
		hopts.Node.Checkpoint = fmt.Sprintf("every %d runs", cfg.checkpointEvery)
	}
	if cfg.role == api.RolePrimary {
		src, err := replica.NewSource(st)
		if err != nil {
			return fail(err)
		}
		fo, err := replica.NewNode(cfg.dir, api.RolePrimary, nil)
		if err != nil {
			return fail(err)
		}
		hopts.Source, hopts.Failover = src, fo
		hopts.Status = func() api.ReplicationStatus {
			rs := src.Status(nil, nil)
			rs.Epoch, rs.Fenced = fo.Epoch(), fo.Fenced()
			return rs
		}
	}
	n.mgr = standing.NewManager(st, standing.Options{})
	st = standing.NewTap(st, n.mgr)
	if cfg.tracer != nil {
		st = cfg.tracer.seam(levelTap, st)
	}
	hopts.Standing = n.mgr
	n.top = st

	for s := st; ; {
		if c, ok := s.(*closurecache.Cache); ok {
			n.cache = c
		}
		u, ok := s.(interface{ Underlying() store.Store })
		if !ok {
			break
		}
		s = u.Underlying()
	}
	switch base := scan.Unwrap(st).(type) {
	case *store.FileStore:
		n.files = []*store.FileStore{base}
	case *shardedstore.Router:
		for i := 0; i < base.NumShards(); i++ {
			fs, err := base.FileShard(i)
			if err != nil {
				return fail(err)
			}
			n.files = append(n.files, fs)
		}
	default:
		return fail(fmt.Errorf("provload: unexpected base store %T", base))
	}

	var handler http.Handler = collab.NewHandlerWith(collab.NewRepository(st), hopts)
	if cfg.tracer != nil {
		handler = cfg.tracer.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: handler}
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// openTracedStore is core.OpenPersistentStore with a seam above the
// router (or the single FileStore) and one above the cache.
func openTracedStore(opt core.Options, t *tracer) (store.Store, error) {
	fileOpt := store.FileOptions{Durability: opt.Durability, CheckpointEvery: opt.CheckpointEvery}
	if opt.EnableClosureCache {
		fileOpt.CheckpointEvery = 0 // the cache drives run-count checkpoints for the stack
	}
	var backing store.Store
	var err error
	if opt.Shards > 1 {
		backing, err = shardedstore.OpenWith(opt.StoreDir, opt.Shards, fileOpt)
	} else {
		backing, err = store.OpenFileStoreWith(opt.StoreDir, fileOpt)
	}
	if err != nil {
		return nil, err
	}
	st := t.seam(levelStore, backing)
	if opt.EnableClosureCache {
		st = t.seam(levelCache, closurecache.New(st, closurecache.Options{
			SnapshotDir:     opt.StoreDir,
			CheckpointEvery: opt.CheckpointEvery,
		}))
	}
	return st, nil
}

// Close stops the server, waits for it, and closes the store stack.
func (n *node) Close() error {
	// Shutdown waits five seconds on a connection the default transport
	// (the follower's, the set-up probe's) dialled ahead and never used.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, n.closeSt())
}

// follower is the in-process read replica of the mixed workload: the
// stack core.OpenFollowerStore gives provd's follower role.
type follower struct {
	st    store.Store
	f     *replica.Follower
	close func() error
}

func openFollower(dir, primary string) (*follower, error) {
	st, f, cleanup, err := core.OpenFollowerStore(core.Options{
		StoreDir:           dir,
		Primary:            primary,
		ReplicaPoll:        50 * time.Millisecond,
		EnableClosureCache: true,
	})
	if err != nil {
		return nil, err
	}
	return &follower{st: st, f: f, close: cleanup}, nil
}
