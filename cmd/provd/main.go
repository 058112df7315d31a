// Command provd serves the collaboratory's HTTP API: workflow sharing,
// full-text search, run-log retrieval, lineage/dependents closure queries
// and batch frontier expansion (/expand), PQL, and recommendations (see
// internal/collab for routes — all under the versioned /v1/ prefix).
// Closure endpoints run on the storage layer's pushed-down batch traversal,
// so they cost O(hops) store operations on every backend — including the
// durable file store.
//
// Usage:
//
//	provd -addr :8080                      # empty repository
//	provd -addr :8080 -seed 7 -users 20    # with a synthetic community
//	provd -store /var/lib/provd            # file-backed store
//	provd -durability group                # group-commit WAL durable ingest
//	provd -checkpoint-every 256            # snapshot every N published runs
//	provd -checkpoint-interval 30s         # …and at most 30s after a write
//	provd -checkpoint-bytes 4194304        # …and every ~4MiB of log growth
//	provd -cache                           # incremental closure cache
//	provd -shards 4                        # sharded store, runs placed with their inputs
//	provd -pprof                           # net/http/pprof at /debug/pprof/
//	provd -slow-query 250ms                # slow-query log threshold
//	provd -log-requests                    # structured per-request log
//
//	# log-shipping replication: one primary, N read replicas
//	provd -addr :8080 -store /var/lib/provd -role primary \
//	      -replicas http://replica1:8081,http://replica2:8082
//	provd -addr :8081 -store /var/lib/provd-replica -role follower \
//	      -primary http://primary:8080
//
// With -role primary the daemon serves its committed WAL (and checkpoint
// snapshots) to followers over /v1/replication/*; -replicas lists
// follower URLs to probe in /v1/replication/status. With -role follower
// the daemon bootstraps its store from the primary's checkpoint + log,
// tails the primary's committed log (poll interval -replica-poll), and
// serves read-only queries — writes are rejected with a read_only_replica
// error, and every response carries X-Replica-Applied / X-Replica-Lag
// headers so clients can judge staleness. A follower's shard count comes
// from the primary; -shards and -seed are rejected under -role follower.
// Followers also serve /v1/replication/* from their own logs, so replicas
// can chain.
//
// Failover: replicated roles carry a monotone fencing epoch
// (persisted in DIR/replication-epoch.json and stamped on every
// response as X-Replication-Epoch). POST /v1/replication/promote — or
// `provctl promote` — turns a follower into the primary: it drains
// what it can reach of the upstream log, bumps the epoch, drops
// read-only and ships its own log; the old primary fences itself
// read-only the moment it observes the higher epoch (requests from a
// lower epoch are rejected with stale_epoch). Follower→primary calls
// retry under jittered exponential backoff with per-request timeouts;
// GET /v1/health distinguishes connected/degraded/disconnected and
// answers 503 for followers that should leave a load balancer's
// rotation, and -max-lag bounds read staleness: beyond it data reads
// answer 503 replica_too_stale instead of arbitrarily stale results.
//
// With -cache the store is wrapped in the incrementally maintained closure
// cache (internal/store/closurecache): /lineage and /dependents hit
// memoized closures, /expand hits memoized frontiers, and each published
// run patches the affected entries at ingest instead of flushing them. On
// a follower the cache observes each replicated run (replica.Follower's
// observer list) and applies the same delta path, so cached closures stay
// warm as replicated runs fold.
//
// With -shards N the store is partitioned across N shards
// (internal/store/shardedstore): a published run is placed whole on the
// shard holding most of its inputs' generators (ingests on different shards
// proceed under per-shard locking),
// /expand scatter/gathers one frontier across the shards in parallel, and
// /lineage and /dependents run the closure pushdown — each shard computes
// its local fixpoint and only cross-shard frontiers are exchanged between
// rounds. Combined with -store DIR the shards are file-backed under
// DIR/shard-000…; a directory must be reopened with the shard count it was
// written with (mismatches are rejected loudly). -cache wraps the sharded
// router unchanged. -trace-rounds logs each pushdown closure's rounds
// executed and per-round frontier sizes, so round-count regressions are
// observable in production, not just in the bench.
//
// With -store DIR, -durability selects the ingest guarantee — none,
// fsync (one fsync per published run) or group (write-ahead group commit:
// concurrent publishes coalesce into batches sharing one fsync; the
// durable mode meant for this daemon's multi-writer ingest) — and the
// checkpoint flags bound reopen replay three ways: -checkpoint-every N
// snapshots every N publishes, -checkpoint-interval D at most D after a
// write dirties the store, and -checkpoint-bytes B every ~B bytes of log
// growth (unsharded stores only), so replay cost stays bounded whether
// ingest is bursty or a trickle.
//
// Observability: GET /v1/metrics serves the process's runtime metrics
// (WAL, store, cache, replication, executor and HTTP families) in
// Prometheus text exposition format, and GET /v1/status reports the node's
// role, uptime, store configuration and build version. Every response
// carries an X-Request-ID (generated, or propagated from the request);
// -log-requests logs each request through log/slog, and requests slower
// than -slow-query (default 1s; 0 disables) are escalated to a Warn-level
// slow-query log with their query string. -pprof additionally serves
// net/http/pprof under /debug/pprof/. provctl status and provctl metrics
// are the matching operator commands.
//
// Standing queries: POST /v1/subscriptions registers a live query — a
// triple pattern, the closure membership of an entity, or a Datalog
// conjunction — answered with an initial snapshot; GET
// /v1/subscriptions/{id}/events then streams its add/remove deltas as
// Server-Sent Events (Last-Event-ID resumes; ?poll=1 long-polls) as
// publishes fold into the result incrementally. Followers host
// subscriptions too, as a second replication observer. provctl watch is
// the matching operator command.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener stops,
// in-flight requests drain (bounded at 10s), and the store — including any
// in-flight auto-checkpoint — and the replication tailer are closed before
// the process exits. A second signal kills immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/replica"
	"repro/internal/store/shardedstore"
)

func main() {
	start := time.Now()
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		storeDir     = flag.String("store", "", "directory for a durable file store (default: in-memory)")
		cache        = flag.Bool("cache", false, "maintain closures incrementally across ingests (closure cache)")
		shards       = flag.Int("shards", 1, "partition the store across N shards, each run placed with the runs it consumes from")
		durability   = flag.String("durability", "none", "ingest durability with -store: none, fsync, or group (group-commit WAL)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "with -store: snapshot the store (and cache) every N published runs")
		ckptInterval = flag.Duration("checkpoint-interval", 0, "with -store: snapshot at most this long after a write dirties the store")
		ckptBytes    = flag.Int64("checkpoint-bytes", 0, "with -store and -shards 1: snapshot every time roughly this many log bytes accumulate")
		role         = flag.String("role", api.RoleStandalone, "replication role: standalone, primary (serve WAL to followers), or follower (read replica)")
		primary      = flag.String("primary", "", "with -role follower: the primary provd's base URL")
		replicas     = flag.String("replicas", "", "with -role primary: comma-separated follower URLs to probe in /v1/replication/status")
		replicaPoll  = flag.Duration("replica-poll", 0, "with -role follower: primary tail interval (default 200ms; failures back off exponentially with jitter)")
		maxLag       = flag.Int64("max-lag", 0, "with -role follower: answer data reads 503 replica_too_stale while replication lag exceeds this many bytes (0: unbounded staleness)")
		traceRounds  = flag.Bool("trace-rounds", false, "log each sharded closure's pushdown rounds and per-round frontier sizes")
		explain      = flag.Bool("explain", false, "log each /query's executed plan: join order, per-operator rows, scan parallelism, allocations")
		pprofFlag    = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		slowQuery    = flag.Duration("slow-query", time.Second, "log requests at least this slow at Warn level, with their query (0 disables)")
		logRequests  = flag.Bool("log-requests", false, "log every request (structured: request ID, route, status, duration)")
		seed         = flag.Int64("seed", 0, "synthesize a community with this seed (0: empty)")
		users        = flag.Int("users", 10, "synthetic community size")
		runsEach     = flag.Int("runs", 3, "synthetic runs published per user")
	)
	flag.Parse()

	dur, err := store.ParseDurability(*durability)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	opts := core.Options{
		StoreDir:           *storeDir,
		Shards:             *shards,
		Durability:         dur,
		CheckpointEvery:    *ckptEvery,
		CheckpointInterval: *ckptInterval,
		CheckpointBytes:    *ckptBytes,
		EnableClosureCache: *cache,
		Primary:            *primary,
		ReplicaPoll:        *replicaPoll,
	}
	if err := opts.ValidatePersistence(); err != nil {
		log.Fatalf("provd: %v", err)
	}
	var trace func(shardedstore.ClosureTrace)
	if *traceRounds {
		trace = func(t shardedstore.ClosureTrace) {
			log.Printf("provd: closure(%s, %s): %d rounds, %d cross-shard crossings, %d nodes, per-round frontier sizes %v",
				t.Seed, t.Dir, t.Rounds, t.Crossings, t.Nodes, t.Probes)
		}
	}
	opts.TraceRounds = trace

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	var hopts collab.HandlerOptions
	hopts.SlowRequest = *slowQuery
	if *logRequests {
		hopts.RequestLog = logger
	}
	hopts.Node = collab.NodeInfo{
		Role:   *role,
		Shards: *shards,
		Cache:  *cache,
		Start:  start,
	}
	if *storeDir != "" {
		hopts.Node.StoreDir = *storeDir
		hopts.Node.Durability = dur.String()
		hopts.Node.Checkpoint = checkpointPolicy(*ckptEvery, *ckptInterval, *ckptBytes)
	}
	if *explain {
		hopts.ExplainQueries = func(query, report string) {
			log.Printf("provd: explain %q\n%s", query, report)
		}
	}

	var st store.Store
	switch *role {
	case api.RoleFollower:
		if *storeDir == "" {
			log.Fatalf("provd: -role follower requires -store DIR (the replica's local log)")
		}
		if *primary == "" {
			log.Fatalf("provd: -role follower requires -primary URL")
		}
		if *seed != 0 {
			log.Fatalf("provd: -seed writes to the store; a follower is read-only (seed the primary instead)")
		}
		if *shards != 1 {
			log.Fatalf("provd: a follower inherits its shard count from the primary; drop -shards")
		}
		fst, f, cleanup, err := core.OpenFollowerStore(opts)
		if err != nil {
			log.Fatalf("provd: open follower: %v", err)
		}
		defer cleanup()
		node, err := replica.NewNode(*storeDir, api.RoleFollower, f)
		if err != nil {
			log.Fatalf("provd: open follower: %v", err)
		}
		// Followers host standing subscriptions too: the manager observes
		// each shipped run after the closure cache core may have registered
		// (observers run in registration order). The tap covers the
		// other write path — local publishes after a promotion — which is
		// disjoint from replication apply, so no run is counted twice.
		mgr := standing.NewManager(fst, standing.Options{})
		f.Observe(mgr.ApplyDelta)
		st = standing.NewTap(fst, mgr)
		hopts.Standing = mgr
		hopts.ReadOnly = true
		hopts.Lag = f.Lag
		hopts.Failover = node
		hopts.MaxLagBytes = *maxLag
		// Followers re-ship their own logs, so replicas can chain off a
		// replica instead of all tailing the primary — and a promoted
		// follower ships its log as the new primary through the same source.
		var fsrc *replica.Source
		if s, err := replica.NewSource(fst); err == nil {
			fsrc, hopts.Source = s, s
		}
		hopts.Status = func() api.ReplicationStatus {
			var rs api.ReplicationStatus
			if node.Role() == api.RoleFollower || fsrc == nil {
				rs = f.Status()
			} else {
				rs = fsrc.Status(nil, nil)
			}
			rs.Epoch, rs.Fenced = node.Epoch(), node.Fenced()
			return rs
		}
		// A follower's real shard count comes from the primary, not -shards.
		hopts.Node.Shards = len(f.Status().Shards)
		applied, behind := f.Lag()
		log.Printf("provd: follower of %s at %d applied bytes (%d behind), epoch %d", *primary, applied, behind, node.Epoch())

	case api.RolePrimary, api.RoleStandalone:
		switch {
		case *storeDir != "":
			persistent, closer, err := core.OpenPersistentStore(opts)
			if err != nil {
				log.Fatalf("provd: open store: %v", err)
			}
			defer closer()
			st = persistent
			if *cache {
				if c, ok := st.(*closurecache.Cache); ok {
					if m := c.Metrics(); m.Restored > 0 {
						log.Printf("provd: restored %d warm closures from snapshot", m.Restored)
					}
				}
			}
		case *shards > 1:
			st = shardedstore.NewMem(*shards).WithTrace(trace)
		default:
			st = store.NewMemStore()
		}
		if *cache && *storeDir == "" {
			st = closurecache.Wrap(st)
		}
		if *role == api.RolePrimary {
			src, err := replica.NewSource(st)
			if err != nil {
				log.Fatalf("provd: -role primary: %v", err)
			}
			node, err := replica.NewNode(*storeDir, api.RolePrimary, nil)
			if err != nil {
				log.Fatalf("provd: -role primary: %v", err)
			}
			replicaURLs := splitURLs(*replicas)
			hopts.Source = src
			hopts.Failover = node
			hopts.Status = func() api.ReplicationStatus {
				rs := src.Status(replicaURLs, func(u string) (*api.ReplicationStatus, error) {
					return api.NewClient(u, probeClient).ReplicationStatus()
				})
				rs.Epoch, rs.Fenced = node.Epoch(), node.Fenced()
				return rs
			}
			log.Printf("provd: primary shipping %d shard log(s) at epoch %d; probing %d replica(s)", src.Shards(), node.Epoch(), len(replicaURLs))
		}
		// Standing subscriptions tap the top of the store stack (above any
		// closure cache), so every accepted publish folds into the live
		// subscriptions after it commits. The replication source above
		// reads the stack beneath the tap.
		mgr := standing.NewManager(st, standing.Options{})
		st = standing.NewTap(st, mgr)
		hopts.Standing = mgr

	default:
		log.Fatalf("provd: unknown -role %q (want standalone, primary or follower)", *role)
	}

	repo := collab.NewRepository(st)
	if *seed != 0 {
		if _, err := collab.SynthesizeCommunity(repo, collab.CommunityOptions{
			Seed: *seed, Users: *users, RunsEach: *runsEach,
		}); err != nil {
			log.Fatalf("provd: synthesize community: %v", err)
		}
		s := repo.Stat()
		log.Printf("provd: synthesized %d workflows, %d runs, %d users", s.Workflows, s.Runs, s.Users)
	}
	var handler http.Handler = collab.NewHandlerWith(repo, hopts)
	if *pprofFlag {
		// Compose pprof onto an outer mux instead of using the
		// DefaultServeMux side-effect registration, so profiling is served
		// only when asked for.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("provd: pprof enabled at /debug/pprof/")
	}

	// Serve until SIGINT/SIGTERM, then drain: Shutdown stops the listener
	// and waits for in-flight requests, and the deferred store/follower
	// closers (which drain auto-checkpoints and the replication tailer) run
	// when main returns — a kill can no longer race an in-flight checkpoint
	// or replication apply.
	srv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("provd: listening on %s (role %s)", *addr, *role)
	select {
	case err := <-errc:
		log.Fatalf("provd: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		log.Printf("provd: shutdown signal received; draining connections")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("provd: shutdown: %v", err)
		}
		log.Printf("provd: closing store")
	}
}

// checkpointPolicy renders the auto-checkpoint flags as the human-readable
// policy /v1/status reports.
func checkpointPolicy(every int, interval time.Duration, bytes int64) string {
	var parts []string
	if every > 0 {
		parts = append(parts, fmt.Sprintf("every %d runs", every))
	}
	if interval > 0 {
		parts = append(parts, fmt.Sprintf("at most %s after a write", interval))
	}
	if bytes > 0 {
		parts = append(parts, fmt.Sprintf("every %.1f MiB of log growth", float64(bytes)/(1<<20)))
	}
	if len(parts) == 0 {
		return "disabled"
	}
	return strings.Join(parts, ", ")
}

// probeClient bounds primary->replica status probes so one dead replica
// can't stall /v1/replication/status.
var probeClient = &http.Client{Timeout: 2 * time.Second}

func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}
