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
	"sync"
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
// {"error": ..., "code": ...} (codes in internal/collab/api). The routes
// are one table (routes, below): a GET route also answers HEAD, a method
// the path has no route for answers 405 with an Allow header, and any
// other path 404. Endpoints (all JSON unless noted):
//
//	GET    /v1/metrics                     Prometheus text exposition (plain text)
//	GET    /v1/status                      node identity: role, epoch, uptime, store, build
//	GET    /v1/health                      200 in rotation, 503 out; reason in the body
//	GET    /v1/workflows                   list IDs (optionally ?q= full-text search)
//	POST   /v1/workflows                   publish {workflow, owner, description, tags}
//	GET    /v1/workflows/{id}              entry (counts a download)
//	GET    /v1/workflows/{id}/runs         run IDs for a workflow
//	POST   /v1/workflows/{id}/rating       rate {user, stars}
//	GET    /v1/runs/{id...}                full run log
//	GET    /v1/lineage?id=ENTITY           upstream closure of an entity
//	GET    /v1/dependents?id=ENTITY        downstream closure of an entity
//	GET    /v1/expand?ids=A,B&dir=up       one-hop frontier expansion (batch)
//	GET    /v1/recommend?user=U            recommendations
//	GET    /v1/query?q=PQL                 PQL query against the provenance store
//	GET    /v1/stats                       repository statistics
//	GET    /v1/replication/status          role + per-shard replication positions
//	GET    /v1/replication/stream?shard=N&from=OFF&max=BYTES
//	                                       committed log chunk (octet-stream)
//	GET    /v1/replication/checkpoint?shard=N  shard checkpoint (octet-stream)
//	POST   /v1/replication/promote         follower→primary cutover
//	GET    /v1/subscriptions               list standing queries
//	POST   /v1/subscriptions               register a standing query
//	GET    /v1/subscriptions/{id}          current full result (re-snapshot)
//	DELETE /v1/subscriptions/{id}          unregister
//	GET    /v1/subscriptions/{id}/events   delta stream (SSE; ?poll=1 long-polls)
//
// With a Failover coordinator every response carries
// X-Replication-Epoch and a request from a lower epoch is rejected
// 409/stale_epoch. The other gates read the matched route's class (see
// class): a fenced primary rejects store writes 403/fenced; a follower
// rejects them 403/read_only_replica, stamps X-Replica-Applied and
// X-Replica-Lag on every response, and past its -max-lag bound answers
// data reads 503/replica_too_stale.
//
// Every v1 route runs inside the observability middleware (obs.go): the
// response carries an X-Request-ID (propagated from the request when
// present), prov_http_requests_total{route,code} and
// prov_http_request_seconds{route} record the call under the route's
// literal prefix (/v1/workflows/, /v1/runs/), and — when configured —
// each request is logged through log/slog with requests slower than the
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
	// classes is what the failover gates read: the class of each
	// registered pattern.
	classes := map[string]class{}
	table := routes(&server{repo: repo, opts: opts, reg: reg})
	allow := map[string][]string{}
	for _, r := range table {
		allow[r.path] = append(allow[r.path], r.method)
	}
	for _, r := range table {
		// The metric label is the path's literal prefix (/v1/workflows/,
		// /v1/runs/): a closed set, whatever IDs requests carry.
		label := r.path[:strings.IndexByte(r.path+"{", '{')]
		pattern := strings.TrimSpace(r.method + " " + r.path)
		mux.Handle(pattern, hobs.instrument(label, r.fn))
		classes[pattern] = r.class
		// The path's first entry also registers the 405 answer to the
		// methods no entry of the path takes.
		if methods := allow[r.path]; r.method != "" && methods[0] == r.method {
			mux.Handle(r.path, hobs.instrument(label, methodNotAllowed(strings.Join(methods, ", "))))
			classes[r.path] = r.class
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no route %s", req.URL.Path))
	})

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
		// The matched route's class. No route (the catch-all, or a
		// redirect ServeMux answers itself) holds no data to be stale.
		_, pattern := mux.Handler(req)
		class, ok := classes[pattern]
		if !ok {
			class = opRead
		}
		// A method the route does not take is gated by its kind: a write
		// is a store write, a read of a store-write route a data read.
		read := req.Method == http.MethodGet || req.Method == http.MethodHead
		switch {
		case !read && (class == dataRead || class == opRead):
			class = storeWrite
		case read && class == storeWrite:
			class = dataRead
		}
		follower := fo.Role() == api.RoleFollower
		if follower {
			applied, behind := fo.Lag()
			w.Header().Set(api.HeaderReplicaApplied, strconv.FormatInt(applied, 10))
			w.Header().Set(api.HeaderReplicaLag, strconv.FormatInt(behind, 10))
			// The -max-lag staleness bound: beyond it a data read gets a
			// 503 rather than an arbitrarily stale answer.
			if class == dataRead && opts.MaxLagBytes > 0 && behind > opts.MaxLagBytes {
				writeError(w, http.StatusServiceUnavailable, api.CodeReplicaTooStale,
					fmt.Errorf("collab: replica lag %d bytes exceeds the node's -max-lag bound %d", behind, opts.MaxLagBytes))
				return
			}
		}
		if class == storeWrite {
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

// class is what the failover gates know of a route.
type class int

const (
	// dataRead serves store data: a follower past its -max-lag bound
	// answers it 503/replica_too_stale.
	dataRead class = iota
	// opRead (health, status, metrics, replication) is served at any
	// lag: it is how operators and followers see the lag.
	opRead
	// storeWrite changes the repository or the store: a follower answers
	// it 403/read_only_replica, a fenced primary 403/fenced.
	storeWrite
	// nodeWrite routes hold node-local state, not the store — standing
	// subscriptions (a follower hosts them) and promotion (a follower's
	// way out of read-only) — and pass every gate.
	nodeWrite
)

// route is one entry of the v1 route table.
type route struct {
	method string // "" takes every method
	path   string // ServeMux path pattern; wildcards are read with PathValue
	class  class
	fn     http.HandlerFunc
}

// server holds what the route handlers read.
type server struct {
	repo *Repository
	opts HandlerOptions
	reg  *obs.Registry
}

// routes is the v1 route table: every route, its method and its class.
func routes(s *server) []route {
	return append([]route{
		{"GET", "/v1/metrics", opRead, metricsHandler(s.reg)},
		{"GET", "/v1/status", opRead, statusHandler(s.opts)},
		{"GET", "/v1/health", opRead, healthHandler(s.opts)},
		{"GET", "/v1/workflows", dataRead, s.listWorkflows},
		{"POST", "/v1/workflows", storeWrite, s.publish},
		{"GET", "/v1/workflows/{id}", dataRead, s.workflow},
		{"GET", "/v1/workflows/{id}/runs", dataRead, s.runsOf},
		{"POST", "/v1/workflows/{id}/rating", storeWrite, s.rate},
		{"GET", "/v1/runs/{id...}", dataRead, s.runLog},
		{"GET", "/v1/lineage", dataRead, s.closure(store.Up)},
		{"GET", "/v1/dependents", dataRead, s.closure(store.Down)},
		{"GET", "/v1/expand", dataRead, s.expand},
		{"GET", "/v1/recommend", dataRead, s.recommend},
		{"GET", "/v1/query", dataRead, s.query},
		{"GET", "/v1/stats", dataRead, s.stats},
		{"GET", "/v1/replication/status", opRead, s.replicationStatus},
		{"GET", "/v1/replication/stream", opRead, s.shipping(s.stream)},
		{"GET", "/v1/replication/checkpoint", opRead, s.shipping(s.checkpoint)},
		{"POST", "/v1/replication/promote", nodeWrite, s.promote},
	}, subscriptionRoutes(s.opts.Standing)...)
}

func (s *server) listWorkflows(w http.ResponseWriter, req *http.Request) {
	if q := req.URL.Query().Get("q"); q != "" {
		writeJSON(w, http.StatusOK, s.repo.Search(q, 20))
		return
	}
	writeJSON(w, http.StatusOK, s.repo.List())
}

func (s *server) publish(w http.ResponseWriter, req *http.Request) {
	var body api.PublishWorkflowRequest
	if !decodeBody(w, req, "publish", &body) {
		return
	}
	if body.Workflow == nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: bad publish body: no workflow"))
		return
	}
	if err := s.repo.Publish(body.Workflow, body.Owner, body.Description, body.Tags...); err != nil {
		writeError(w, http.StatusConflict, api.CodeConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.PublishWorkflowResponse{ID: body.Workflow.ID})
}

// workflow serves one entry. GET counts a download; HEAD, which ServeMux
// routes through the same pattern and which sends no body, only peeks.
func (s *server) workflow(w http.ResponseWriter, req *http.Request) {
	get := s.repo.Get
	if req.Method == http.MethodHead {
		get = s.repo.Peek
	}
	e, err := get(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, e)
}

func (s *server) runsOf(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if _, err := s.repo.Peek(id); err != nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, s.repo.RunsOf(id))
}

func (s *server) rate(w http.ResponseWriter, req *http.Request) {
	var body api.RateRequest
	if !decodeBody(w, req, "rating", &body) {
		return
	}
	if err := s.repo.Rate(req.PathValue("id"), body.User, body.Stars); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, api.StatusResponse{Status: "ok"})
}

func (s *server) runLog(w http.ResponseWriter, req *http.Request) {
	l, err := s.repo.Store().RunLog(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

// closure serves /v1/lineage and /v1/dependents on the pushed-down batch
// traversal: one store round-trip per BFS hop regardless of backend.
func (s *server) closure(dir store.Direction) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id == "" {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: id parameter required"))
			return
		}
		ids, err := s.repo.Store().Closure(id, dir)
		if err != nil {
			writeStoreError(w, err)
			return
		}
		writeIDs(w, func(b []byte) []byte { return api.AppendIDList(b, ids) })
	}
}

func (s *server) expand(w http.ResponseWriter, req *http.Request) {
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
	adj, err := s.repo.Store().Expand(strings.Split(idsParam, ","), dir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err)
		return
	}
	writeIDs(w, func(b []byte) []byte { return api.AppendIDMap(b, adj) })
}

func (s *server) recommend(w http.ResponseWriter, req *http.Request) {
	user := req.URL.Query().Get("user")
	if user == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, errors.New("collab: user parameter required"))
		return
	}
	k, _ := strconv.Atoi(req.URL.Query().Get("k"))
	if k <= 0 {
		k = 5
	}
	writeJSON(w, http.StatusOK, s.repo.Recommend(user, k))
}

func (s *server) query(w http.ResponseWriter, req *http.Request) {
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
	if s.opts.ExplainQueries != nil {
		var ex *pql.Explain
		if res, ex, err = pql.ExecuteExplain(s.repo.Store(), parsed); err == nil {
			s.opts.ExplainQueries(q, ex.String())
		}
	} else {
		res, err = pql.Execute(s.repo.Store(), parsed)
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, pql.ErrInvalid):
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
	default:
		writeStoreError(w, err)
	}
}

func (s *server) stats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.repo.Stat())
}

func (s *server) replicationStatus(w http.ResponseWriter, req *http.Request) {
	if s.opts.Status != nil {
		writeJSON(w, http.StatusOK, s.opts.Status())
		return
	}
	writeJSON(w, http.StatusOK, api.ReplicationStatus{Role: api.RoleStandalone})
}

// shipping serves fn on a node with a log to ship, 404/unavailable on
// any other.
func (s *server) shipping(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if s.opts.Source == nil {
			writeError(w, http.StatusNotFound, api.CodeUnavailable,
				errors.New("collab: this node does not serve a replicable log (start provd with -role primary)"))
			return
		}
		fn(w, req)
	}
}

func (s *server) stream(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	shard, _ := strconv.Atoi(q.Get("shard"))
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("collab: bad from offset %q", q.Get("from")))
		return
	}
	maxBytes, _ := strconv.Atoi(q.Get("max"))
	data, committed, err := s.opts.Source.ReadLog(shard, from, min(maxBytes, maxStreamBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	w.Header().Set(api.HeaderLogCommitted, strconv.FormatInt(committed, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *server) checkpoint(w http.ResponseWriter, req *http.Request) {
	shard, _ := strconv.Atoi(req.URL.Query().Get("shard"))
	data, ok, err := s.opts.Source.CheckpointBytes(shard)
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
}

func (s *server) promote(w http.ResponseWriter, req *http.Request) {
	if s.opts.Failover == nil {
		writeError(w, http.StatusNotFound, api.CodeUnavailable,
			errors.New("collab: this node has no failover coordinator (start provd with -role follower)"))
		return
	}
	pr, err := s.opts.Failover.Promote(req.Context())
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
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// idBufs holds the buffers writeIDs appends answers into.
var idBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledAnswer bounds the buffers idBufs keeps, so that one huge
// closure does not stay pinned in memory.
const maxPooledAnswer = 64 << 10

// writeIDs answers 200 with the ID-list body appendBody writes (the bytes
// writeJSON would send for the same value), in one Write under its
// Content-Length.
func writeIDs(w http.ResponseWriter, appendBody func([]byte) []byte) {
	bp := idBufs.Get().(*[]byte)
	b := appendBody((*bp)[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledAnswer {
		*bp = b
		idBufs.Put(bp)
	}
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

// methodNotAllowed answers a method no table entry of the path takes.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			fmt.Errorf("collab: method not allowed (use %s)", allow))
	}
}
