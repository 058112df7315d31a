package collab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/query/pql"
	"repro/internal/query/standing"
	"repro/internal/store"
)

// NewHandler exposes the repository and lineage service over HTTP (the
// collaboratory's Web face). Every route lives under the versioned /v1
// prefix and answers failures with the shared envelope
// {"error": ..., "code": ...} (codes in internal/collab/api); any other
// path is a 404. Endpoints (all JSON unless noted):
//
//	GET  /v1/workflows                  list IDs (optionally ?q= full-text search)
//	POST /v1/workflows                  publish {workflow, owner, description, tags}
//	GET  /v1/workflows/{id}             entry (counts a download)
//	GET  /v1/workflows/{id}/runs        run IDs for a workflow
//	POST /v1/workflows/{id}/rating      rate {user, stars}
//	GET  /v1/runs/{id}                  full run log
//	GET  /v1/lineage?id=ENTITY          upstream closure of an entity
//	GET  /v1/dependents?id=ENTITY       downstream closure of an entity
//	GET  /v1/expand?ids=A,B&dir=up      one-hop frontier expansion (batch)
//	GET  /v1/recommend?user=U           recommendations
//	GET  /v1/query?q=PQL                PQL query against the provenance store
//	GET  /v1/stats                      repository statistics
//	GET  /v1/status                     node identity: role, epoch, uptime,
//	                                    store config, build version
//	GET  /v1/health                     load-balancer health: 200 in
//	                                    rotation, 503 out (stale/disconnected
//	                                    follower), reason in the body
//	GET  /v1/metrics                    runtime metrics, Prometheus text
//	                                    exposition format (plain text)
//	GET  /v1/replication/status         role + per-shard replication positions
//	POST /v1/replication/promote        follower→primary cutover: drain,
//	                                    bump epoch, drop read-only
//	GET  /v1/replication/stream?shard=N&from=OFF&max=BYTES
//	                                    record-aligned committed log chunk
//	                                    (octet-stream, X-Log-Committed header)
//	GET  /v1/replication/checkpoint?shard=N
//	                                    raw shard checkpoint snapshot (octet-stream)
//	POST /v1/subscriptions              register a standing query
//	GET  /v1/subscriptions              list standing queries
//	GET  /v1/subscriptions/{id}         current full result (re-snapshot)
//	DEL  /v1/subscriptions/{id}         unregister
//	GET  /v1/subscriptions/{id}/events  live delta stream (SSE; ?poll=1
//	                                    long-polls) — see subscriptions.go
//
// With a Failover coordinator every response carries
// X-Replication-Epoch; requests from a lower epoch are rejected
// 409/stale_epoch and a fenced primary rejects writes 403/fenced. While
// the coordinator reports the follower role, non-GET traffic is rejected
// 403/read_only_replica — except the /v1/subscriptions routes, which
// mutate node-local serving state rather than the store, and the promote
// route, a follower's escape hatch out of read-only — every response
// carries X-Replica-Applied and X-Replica-Lag so clients can bound
// staleness, and past its -max-lag bound data reads answer
// 503/replica_too_stale.
//
// Every v1 route runs inside the observability middleware (obs.go): the
// response carries an X-Request-ID (propagated from the request when
// present), prov_http_requests_total{route,code} and
// prov_http_request_seconds{route} record the call, and — when configured
// — each request is logged through log/slog with requests slower than the
// threshold escalated to the Warn-level slow-query log.
func NewHandler(repo *Repository) http.Handler {
	return NewHandlerWith(repo, HandlerOptions{})
}

// FailoverState is the per-request failover surface the handler
// consults: the node's live role (promotion changes it at runtime), its
// fencing epoch, whether it fenced itself, and the epoch/promotion
// operations. Implemented by replica.Node; nil means the node does not
// participate in failover (standalone): it is writable and stamps no
// replication headers.
type FailoverState interface {
	// Role returns the node's current replication role (api.Role*).
	Role() string
	// Epoch returns the node's fencing epoch.
	Epoch() uint64
	// Fenced reports a primary that demoted itself after observing a
	// higher epoch.
	Fenced() bool
	// Observe teaches the node an epoch seen on a request; returns true
	// when the observation fenced the node.
	Observe(remote uint64) bool
	// Promote turns a follower into the primary (POST
	// /v1/replication/promote).
	Promote(ctx context.Context) (*api.PromoteResponse, error)
	// Health assembles the /v1/health body; ok=false answers 503.
	Health(maxLag int64) (h api.HealthResponse, ok bool)
	// Lag returns a follower's total applied bytes and how far behind
	// its primary it is — the X-Replica-Applied / X-Replica-Lag headers
	// and the -max-lag read gate.
	Lag() (applied, behind int64)
}

// ReplicationSource serves the primary side of log shipping: positional
// reads of each shard's committed WAL prefix plus its checkpoint
// snapshot. Implemented by replica.Source over a FileStore or a sharded
// router.
type ReplicationSource interface {
	// ReadLog returns a record-aligned chunk of shard's committed log
	// from the given offset (maxBytes 0: server default) and the
	// committed size at read time.
	ReadLog(shard int, from int64, maxBytes int) (data []byte, committed int64, err error)
	// CheckpointBytes returns the shard's checkpoint snapshot verbatim,
	// ok=false when none has been written yet.
	CheckpointBytes(shard int) (data []byte, ok bool, err error)
	// Positions reports every shard's committed and checkpoint offsets.
	Positions() []api.ShardPosition
}

// maxStreamBytes caps one /v1/replication/stream chunk whatever max the
// client asks for — four times the follower's 1 MiB default — so one
// request cannot make the node read its whole log into memory. A single
// record larger than the cap still ships whole: the read grows past the
// cap until the first record fits.
const maxStreamBytes = 4 << 20

// HandlerOptions tunes the HTTP face.
type HandlerOptions struct {
	// ExplainQueries, when set, receives each /query's executed-plan
	// report (join order, per-operator row counts, parallel scan width,
	// bytes allocated) — provd's -explain flag logs it.
	ExplainQueries func(query, explain string)
	// Source, when set, serves the /v1/replication/{stream,checkpoint}
	// endpoints followers ship from (primary role).
	Source ReplicationSource
	// Status, when set, answers /v1/replication/status; nil reports a
	// standalone node with no shards.
	Status func() api.ReplicationStatus
	// Failover, when set, turns on epoch fencing and runtime role
	// transitions: every response is stamped with X-Replication-Epoch,
	// requests carrying a lower epoch are rejected 409/stale_epoch,
	// higher epochs are adopted (fencing an unfenced primary), and
	// /v1/health + POST /v1/replication/promote are served from it.
	// While its role is follower the node is read-only — its store has
	// exactly one writer, the replication applier — and every response
	// carries the X-Replica-Applied / X-Replica-Lag headers; promotion
	// drops both at runtime.
	Failover FailoverState
	// MaxLagBytes, when positive on a follower, bounds read staleness:
	// data reads while the replication lag exceeds it answer
	// 503/replica_too_stale instead of silently serving arbitrarily
	// stale results. Health, status, metrics, replication and
	// subscription routes are exempt.
	MaxLagBytes int64
	// Metrics is the registry the per-route middleware records into and
	// /v1/metrics serves; nil uses obs.Default() (the registry every
	// subsystem instruments), which is what provd wants — tests pass a
	// fresh registry to assert on isolated counters.
	Metrics *obs.Registry
	// RequestLog, when set, receives one structured line per request
	// (request ID, method, route, status, bytes, duration).
	RequestLog *slog.Logger
	// SlowRequest, when positive, logs requests at least this slow at
	// Warn level with their query string — the slow-query log.
	SlowRequest time.Duration
	// Node describes this node for /v1/status; the zero value reports a
	// standalone single-shard node.
	Node NodeInfo
	// Standing, when set, serves the standing-query subscription API
	// under /v1/subscriptions (registration, listing, SSE event streams);
	// nil answers those routes 503/unavailable. Followers serve it too —
	// subscriptions are node-local serving state, not store writes, so the
	// read-only guard exempts the subscription routes.
	Standing *standing.Manager
}

// NewHandlerWith is NewHandler with options.
func NewHandlerWith(repo *Repository, opts HandlerOptions) http.Handler {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	hobs := &httpObs{reg: reg, log: opts.RequestLog, slow: opts.SlowRequest}
	mux := http.NewServeMux()
	// Every route registers through the observability middleware.
	v1 := func(pattern string, fn http.HandlerFunc) {
		route := api.V1Prefix + pattern
		mux.HandleFunc(route, hobs.instrument(route, fn))
	}

	v1("/metrics", metricsHandler(reg))
	v1("/status", statusHandler(opts))
	v1("/health", healthHandler(opts))

	v1("/workflows", func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			if q := req.URL.Query().Get("q"); q != "" {
				writeJSON(w, http.StatusOK, repo.Search(q, 20))
				return
			}
			writeJSON(w, http.StatusOK, repo.List())
		case http.MethodPost:
			var body api.PublishWorkflowRequest
			if !decodeBody(w, req, "publish", &body) {
				return
			}
			if body.Workflow == nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: bad publish body: no workflow"))
				return
			}
			if err := repo.Publish(body.Workflow, body.Owner, body.Description, body.Tags...); err != nil {
				writeError(w, http.StatusConflict, api.CodeConflict, err)
				return
			}
			writeJSON(w, http.StatusCreated, api.PublishWorkflowResponse{ID: body.Workflow.ID})
		default:
			methodNotAllowed(w, "GET, POST")
		}
	})

	v1("/workflows/", func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(req.URL.Path, api.V1Prefix+"/workflows/")
		parts := strings.Split(rest, "/")
		id := parts[0]
		switch {
		case len(parts) == 1:
			if req.Method != http.MethodGet {
				methodNotAllowed(w, "GET")
				return
			}
			e, err := repo.Get(id)
			if err != nil {
				writeError(w, http.StatusNotFound, api.CodeNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, e)
		case len(parts) == 2 && parts[1] == "runs":
			if req.Method != http.MethodGet {
				methodNotAllowed(w, "GET")
				return
			}
			if _, err := repo.Peek(id); err != nil {
				writeError(w, http.StatusNotFound, api.CodeNotFound, err)
				return
			}
			writeJSON(w, http.StatusOK, repo.RunsOf(id))
		case len(parts) == 2 && parts[1] == "rating":
			if req.Method != http.MethodPost {
				methodNotAllowed(w, "POST")
				return
			}
			var body api.RateRequest
			if !decodeBody(w, req, "rating", &body) {
				return
			}
			if err := repo.Rate(id, body.User, body.Stars); err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
				return
			}
			writeJSON(w, http.StatusOK, api.StatusResponse{Status: "ok"})
		default:
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no route %s %s", req.Method, req.URL.Path))
		}
	})

	v1("/runs/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		id := strings.TrimPrefix(req.URL.Path, api.V1Prefix+"/runs/")
		l, err := repo.Store().RunLog(id)
		if err != nil {
			writeError(w, http.StatusNotFound, api.CodeNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, l)
	})

	// Closure endpoints run on the pushed-down batch traversal: one store
	// round-trip per BFS hop regardless of backend.
	closure := func(dir store.Direction) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodGet {
				methodNotAllowed(w, "GET")
				return
			}
			id := req.URL.Query().Get("id")
			if id == "" {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: id parameter required"))
				return
			}
			ids, err := repo.Store().Closure(id, dir)
			if err != nil {
				writeStoreError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, ids)
		}
	}
	v1("/lineage", closure(store.Up))
	v1("/dependents", closure(store.Down))

	v1("/expand", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		idsParam := req.URL.Query().Get("ids")
		if idsParam == "" {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: ids parameter required"))
			return
		}
		dir := store.Up
		if d := req.URL.Query().Get("dir"); d != "" {
			var err error
			if dir, err = store.ParseDirection(d); err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
				return
			}
		}
		adj, err := repo.Store().Expand(strings.Split(idsParam, ","), dir)
		if err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
			return
		}
		writeJSON(w, http.StatusOK, adj)
	})

	v1("/recommend", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		user := req.URL.Query().Get("user")
		if user == "" {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: user parameter required"))
			return
		}
		k, _ := strconv.Atoi(req.URL.Query().Get("k"))
		if k <= 0 {
			k = 5
		}
		writeJSON(w, http.StatusOK, repo.Recommend(user, k))
	})

	v1("/query", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		q := req.URL.Query().Get("q")
		if q == "" {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: q parameter required"))
			return
		}
		parsed, err := pql.Parse(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
			return
		}
		var res *pql.Result
		if opts.ExplainQueries != nil {
			var ex *pql.Explain
			if res, ex, err = pql.ExecuteExplain(repo.Store(), parsed); err == nil {
				opts.ExplainQueries(q, ex.String())
			}
		} else {
			res, err = pql.Execute(repo.Store(), parsed)
		}
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, res)
		case errors.Is(err, pql.ErrInvalid):
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		default:
			writeStoreError(w, err)
		}
	})

	v1("/stats", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		writeJSON(w, http.StatusOK, repo.Stat())
	})

	v1("/replication/status", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			methodNotAllowed(w, "GET")
			return
		}
		if opts.Status != nil {
			writeJSON(w, http.StatusOK, opts.Status())
			return
		}
		writeJSON(w, http.StatusOK, api.ReplicationStatus{Role: api.RoleStandalone})
	})

	// The shipping routes answer GETs, on a node with a log to ship.
	shipping := func(pattern string, fn http.HandlerFunc) {
		v1(pattern, func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodGet {
				methodNotAllowed(w, "GET")
			} else if opts.Source == nil {
				writeError(w, http.StatusNotFound, api.CodeUnavailable,
					errors.New("collab: this node does not serve a replicable log (start provd with -role primary)"))
			} else {
				fn(w, req)
			}
		})
	}

	shipping("/replication/stream", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		shard, _ := strconv.Atoi(q.Get("shard"))
		from, err := strconv.ParseInt(q.Get("from"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("collab: bad from offset %q", q.Get("from")))
			return
		}
		maxBytes, _ := strconv.Atoi(q.Get("max"))
		data, committed, err := opts.Source.ReadLog(shard, from, min(maxBytes, maxStreamBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
			return
		}
		w.Header().Set(api.HeaderLogCommitted, strconv.FormatInt(committed, 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})

	shipping("/replication/checkpoint", func(w http.ResponseWriter, req *http.Request) {
		shard, _ := strconv.Atoi(req.URL.Query().Get("shard"))
		data, ok, err := opts.Source.CheckpointBytes(shard)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: shard %d has no checkpoint yet", shard))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})

	v1("/replication/promote", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			methodNotAllowed(w, "POST")
			return
		}
		if opts.Failover == nil {
			writeError(w, http.StatusNotFound, api.CodeUnavailable,
				errors.New("collab: this node has no failover coordinator (start provd with -role follower)"))
			return
		}
		pr, err := opts.Failover.Promote(req.Context())
		if err != nil {
			status, code := http.StatusInternalServerError, api.CodeInternal
			var re *api.RemoteError
			if errors.As(err, &re) {
				status, code = re.HTTPStatus, re.Code
			}
			writeError(w, status, code, err)
			return
		}
		writeJSON(w, http.StatusOK, pr)
	})

	v1("/subscriptions", subscriptionsHandler(opts.Standing))
	v1("/subscriptions/", subscriptionHandler(opts.Standing))

	fo := opts.Failover
	if fo == nil {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Epoch exchange first: a request from a lower epoch is acting on
		// a fenced configuration and must not be served; a higher epoch
		// teaches this node it has been superseded (an unfenced primary
		// fences itself inside Observe). The response always carries our
		// (possibly just-raised) epoch so the peer learns it.
		if v := req.Header.Get(api.HeaderReplicationEpoch); v != "" {
			if remote, err := strconv.ParseUint(v, 10, 64); err == nil {
				if remote < fo.Epoch() {
					w.Header().Set(api.HeaderReplicationEpoch, strconv.FormatUint(fo.Epoch(), 10))
					writeError(w, http.StatusConflict, api.CodeStaleEpoch,
						fmt.Errorf("collab: request epoch %d is behind this node's epoch %d", remote, fo.Epoch()))
					return
				}
				fo.Observe(remote)
			}
		}
		w.Header().Set(api.HeaderReplicationEpoch, strconv.FormatUint(fo.Epoch(), 10))
		follower := fo.Role() == api.RoleFollower
		if follower {
			applied, behind := fo.Lag()
			w.Header().Set(api.HeaderReplicaApplied, strconv.FormatInt(applied, 10))
			w.Header().Set(api.HeaderReplicaLag, strconv.FormatInt(behind, 10))
			// The -max-lag staleness bound: beyond it a data read gets a
			// 503 rather than an arbitrarily stale answer. Health, status,
			// metrics, replication and subscription routes stay reachable —
			// they are how operators and consumers see the staleness. Only
			// reads are gated: a write never serves stale data, and gets
			// the more actionable read-only rejection below.
			if opts.MaxLagBytes > 0 && behind > opts.MaxLagBytes &&
				(req.Method == http.MethodGet || req.Method == http.MethodHead) &&
				!staleExempt(req.URL.Path) {
				writeError(w, http.StatusServiceUnavailable, api.CodeReplicaTooStale,
					fmt.Errorf("collab: replica lag %d bytes exceeds the node's -max-lag bound %d", behind, opts.MaxLagBytes))
				return
			}
		}
		// Subscriptions are node-local serving state, not store writes: a
		// follower hosts them (fed by replication apply), so registering
		// and deleting them must pass the read-only guard. Promotion is
		// the follower's escape hatch out of read-only, so it passes too.
		exemptRoute := strings.HasPrefix(req.URL.Path, api.V1Prefix+"/subscriptions") ||
			req.URL.Path == api.V1Prefix+"/replication/promote"
		if req.Method != http.MethodGet && req.Method != http.MethodHead && !exemptRoute {
			if follower {
				writeError(w, http.StatusForbidden, api.CodeReadOnlyReplica,
					errors.New("collab: this node is a read replica; send writes to the primary"))
				return
			}
			if fo.Fenced() {
				writeError(w, http.StatusForbidden, api.CodeFenced,
					errors.New("collab: this primary is fenced (a higher-epoch primary exists); send writes there"))
				return
			}
		}
		mux.ServeHTTP(w, req)
	})
}

// staleExempt lists the routes a staleness-bounded follower still
// serves past its -max-lag bound: operational surfaces and the
// replication/subscription machinery itself.
func staleExempt(path string) bool {
	for _, p := range []string{"/health", "/status", "/metrics"} {
		if path == api.V1Prefix+p {
			return true
		}
	}
	return strings.HasPrefix(path, api.V1Prefix+"/replication/") ||
		strings.HasPrefix(path, api.V1Prefix+"/subscriptions")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds a request body. The largest kind, a published
// workflow definition, is about 2 KB for the demo pipelines.
const maxBodyBytes = 1 << 20

// decodeBody decodes req's JSON body into v, reading at most maxBodyBytes
// of it. On failure it answers the request itself — 413 for an oversize
// body, 400 for one that does not decode, both in the bad_request
// envelope — and reports false.
func decodeBody(w http.ResponseWriter, req *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, api.CodeBadRequest,
			fmt.Errorf("collab: %s body exceeds %d bytes", what, maxBodyBytes))
	default:
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("collab: bad %s body: %v", what, err))
	}
	return false
}

// writeError emits the shared v1 envelope; every failure path goes
// through here so clients can rely on {"error", "code"} uniformly.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, api.Error{Message: err.Error(), Code: code})
}

// writeStoreError answers a failed store read: 404 for an entity the store
// does not hold, 500 for anything else — a log that could not be read is
// the server's fault, not the client's.
func writeStoreError(w http.ResponseWriter, err error) {
	if errors.Is(err, store.ErrNotFound) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, err)
		return
	}
	writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
		fmt.Errorf("collab: method not allowed (use %s)", allow))
}
