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
// from the primary; -shards and -seed are rejected under -role follower,
// and so is every flag the chosen role would ignore: -primary,
// -replica-poll and -max-lag without -role follower, -replicas without
// -role primary. Followers also serve /v1/replication/* from their own
// logs, so replicas can chain.
//
// core.OpenNode assembles the node for every role (store stack, standing
// subscriptions, replication source and failover coordinator); this
// command parses flags, seeds the community and serves HTTP.
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
// With -cache the stack carries the incrementally maintained closure
// cache (internal/store/closurecache): closure reads hit memoized
// closures, which each published or replicated run patches in place;
// /expand reads the store's own adjacency index. With -shards N the store
// is partitioned across N shards (internal/store/shardedstore;
// file-backed under DIR/shard-000… with -store DIR, which must be reopened
// with the shard count it was written with), and -trace-rounds logs each
// pushdown closure's rounds and per-round frontier sizes. README's "Closure cache" and "Sharded store"
// sections describe both layers.
//
// With -store DIR, -durability selects the ingest guarantee — none or
// group (write-ahead group commit: concurrent publishes coalesce into
// batches sharing one fsync; a lone publish is its own batch) — and
// -checkpoint-every N snapshots the store (and the closure cache) every N
// accepted ingests, so a reopen replays only the log suffix past the last
// snapshot. It is the one automatic checkpoint trigger.
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
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"repro/internal/collab"
	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

func main() {
	start := time.Now()
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		storeDir    = flag.String("store", "", "directory for a durable file store (default: in-memory)")
		cache       = flag.Bool("cache", false, "maintain closures incrementally across ingests (closure cache)")
		shards      = flag.Int("shards", 1, "partition the store across N shards, each run placed with the runs it consumes from")
		durability  = flag.String("durability", "none", "ingest durability with -store: none or group (group-commit WAL)")
		ckptEvery   = flag.Int("checkpoint-every", 0, "with -store: snapshot the store (and cache) every N published runs")
		role        = flag.String("role", api.RoleStandalone, "replication role: standalone, primary (serve WAL to followers), or follower (read replica)")
		primary     = flag.String("primary", "", "with -role follower: the primary provd's base URL")
		replicas    = flag.String("replicas", "", "with -role primary: comma-separated follower URLs to probe in /v1/replication/status")
		replicaPoll = flag.Duration("replica-poll", 0, "with -role follower: primary tail interval (default 200ms; failures back off exponentially with jitter)")
		maxLag      = flag.Int64("max-lag", 0, "with -role follower: answer data reads 503 replica_too_stale while replication lag exceeds this many bytes (0: unbounded staleness)")
		traceRounds = flag.Bool("trace-rounds", false, "log each sharded closure's pushdown rounds and per-round frontier sizes")
		explain     = flag.Bool("explain", false, "log each /query's executed plan: join order, per-operator rows, scan parallelism, allocations")
		pprofFlag   = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		slowQuery   = flag.Duration("slow-query", time.Second, "log requests at least this slow at Warn level, with their query (0 disables)")
		logRequests = flag.Bool("log-requests", false, "log every request (structured: request ID, route, status, duration)")
		seed        = flag.Int64("seed", 0, "synthesize a community with this seed (0: empty)")
		users       = flag.Int("users", 10, "synthetic community size")
		runsEach    = flag.Int("runs", 3, "synthetic runs published per user")
	)
	flag.Parse()

	dur, err := store.ParseDurability(*durability)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	if *role == api.RoleFollower && *seed != 0 {
		log.Fatalf("provd: -seed writes to the store; a follower is read-only (seed the primary instead)")
	}
	opts := core.Options{
		Role:               *role,
		StoreDir:           *storeDir,
		Shards:             *shards,
		Durability:         dur,
		CheckpointEvery:    *ckptEvery,
		EnableClosureCache: *cache,
		Primary:            *primary,
		ReplicaPoll:        *replicaPoll,
		MaxLagBytes:        *maxLag,
		Replicas:           strings.FieldsFunc(*replicas, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }),
	}
	if *traceRounds {
		opts.TraceRounds = func(t shardedstore.ClosureTrace) {
			log.Printf("provd: closure(%s, %s): %d rounds, %d cross-shard crossings, %d nodes, per-round frontier sizes %v",
				t.Seed, t.Dir, t.Rounds, t.Crossings, t.Nodes, t.Probes)
		}
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	node, err := core.OpenNode(opts)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	defer node.Close()
	if node.Cache != nil && node.Cache.Metrics().Restored > 0 {
		log.Printf("provd: restored %d warm closures from snapshot", node.Cache.Metrics().Restored)
	}
	switch {
	case node.Follower != nil:
		applied, behind := node.Follower.Lag()
		log.Printf("provd: follower of %s at %d applied bytes (%d behind), epoch %d", *primary, applied, behind, node.Failover.Epoch())
	case node.Source != nil:
		log.Printf("provd: primary shipping %d shard log(s) at epoch %d; probing %d replica(s)", node.Source.Shards(), node.Failover.Epoch(), len(opts.Replicas))
	}

	hopts := collab.HandlerOptions{SlowRequest: *slowQuery, Node: collab.NodeInfo{Start: start}}
	if *logRequests {
		hopts.RequestLog = logger
	}
	if *explain {
		hopts.ExplainQueries = func(query, report string) {
			log.Printf("provd: explain %q\n%s", query, report)
		}
	}

	repo := collab.NewRepository(node.Store)
	if *seed != 0 {
		if _, err := collab.SynthesizeCommunity(repo, collab.CommunityOptions{
			Seed: *seed, Users: *users, RunsEach: *runsEach,
		}); err != nil {
			log.Fatalf("provd: synthesize community: %v", err)
		}
		s := repo.Stat()
		log.Printf("provd: synthesized %d workflows, %d runs, %d users", s.Workflows, s.Runs, s.Users)
	}
	var handler http.Handler = collab.NewHandlerWith(repo, node.HandlerOptions(hopts))
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
	srv := newServer(*addr, handler)
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

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so one that trickles them cannot hold a goroutine forever.
// Bodies, SSE streams and long polls are not bounded by it.
const readHeaderTimeout = 10 * time.Second

// newServer is provd's HTTP server for handler on addr.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}
