package core

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/replica"
)

// Node is one provd in any of its roles, assembled by OpenNode;
// HandlerOptions wires it into the HTTP face.
type Node struct {
	// Store is the top of the stack — the standing tap over the closure
	// cache (when enabled) over the backing store — that serves and ingests.
	Store store.Store
	// Cache is the stack's closure cache (nil without EnableClosureCache).
	Cache *closurecache.Cache
	// Standing serves the /v1/subscriptions routes.
	Standing *standing.Manager
	// Follower ships the primary's log into a follower's store.
	Follower *replica.Follower
	// Source ships this node's log to followers and Failover holds its
	// fencing epoch and live role; both are nil on a standalone node.
	Source   *replica.Source
	Failover *replica.Node

	opt   Options
	close func() error
}

// OpenNode validates opt and assembles the node its Role describes over
// the stack of OpenFollowerStore, OpenPersistentStore (StoreDir) or
// NewSystem. The standing manager observes a follower's shipped runs after
// the cache does, and its tap covers local publishes — on a follower only
// those after a promotion, disjoint from replication apply. Followers ship
// their log too: replicas chain, and a promoted follower ships as primary.
func OpenNode(opt Options) (*Node, error) {
	if err := opt.ValidatePersistence(); err != nil {
		return nil, err
	}
	var sk stack
	var err error
	switch {
	case opt.Role == api.RoleFollower:
		sk, err = openFollower(opt)
	case opt.StoreDir != "":
		sk, err = openPersistent(opt)
	default:
		sk = cached(memStore(opt), opt)
	}
	if err != nil {
		return nil, err
	}
	if opt.Role == "" {
		opt.Role = api.RoleStandalone
	}
	n := &Node{Cache: sk.cache, Follower: sk.follower, opt: opt, close: sk.close}
	n.Standing = standing.NewManager(sk.top, standing.Options{})
	if n.Follower != nil {
		n.Follower.Observe(n.Standing.ApplyDelta)
	}
	n.Store = standing.NewTap(sk.top, n.Standing)
	if opt.Role != api.RoleStandalone {
		// The source reads the stack beneath the tap.
		if n.Source, err = replica.NewSource(sk.top); err == nil {
			n.Failover, err = replica.NewNode(opt.StoreDir, opt.Role, n.Follower)
		}
		if err != nil {
			_ = n.Close()
			return nil, fmt.Errorf("core: -role %s: %w", opt.Role, err)
		}
	}
	return n, nil
}

// Close stops a follower's shipper and closes the store stack, draining
// any in-flight auto-checkpoint.
func (n *Node) Close() error { return n.close() }

// HandlerOptions returns h with the node's part of the HTTP face filled
// in: the /v1/status description, subscriptions and, on a replicated
// node, log shipping, failover, the -max-lag bound and the replication
// status (probing Replicas).
func (n *Node) HandlerOptions(h collab.HandlerOptions) collab.HandlerOptions {
	h.Standing = n.Standing
	h.Node.Role, h.Node.Shards, h.Node.Cache = n.opt.Role, n.opt.Shards, n.opt.EnableClosureCache
	if n.Follower != nil {
		h.Node.Shards = len(n.Follower.Status().Shards) // the primary's, not -shards
	}
	if n.opt.StoreDir != "" {
		h.Node.StoreDir, h.Node.Durability, h.Node.Checkpoint = n.opt.StoreDir, n.opt.Durability.String(), n.checkpointPolicy()
	}
	if n.Failover != nil {
		h.Source, h.Failover, h.MaxLagBytes = n.Source, n.Failover, n.opt.MaxLagBytes
		h.Status = func() api.ReplicationStatus {
			return n.Failover.Status(n.Source, n.opt.Replicas, func(url string) (*api.ReplicationStatus, error) {
				return api.NewClient(url, probeClient).ReplicationStatus()
			})
		}
	}
	return h
}

// checkpointPolicy renders the auto-checkpoint option as the
// human-readable policy /v1/status reports.
func (n *Node) checkpointPolicy() string {
	if every := n.opt.CheckpointEvery; every > 0 {
		return fmt.Sprintf("every %d runs", every)
	}
	return "disabled"
}

// probeClient bounds primary->replica status probes so one dead replica
// can't stall /v1/replication/status.
var probeClient = &http.Client{Timeout: 2 * time.Second}
