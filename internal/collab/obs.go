package collab

// HTTP-surface observability: the per-route middleware every v1 handler is
// registered through (request counts by route and status, latency
// histograms, X-Request-ID stamping, structured request logging, the
// slow-query log) plus the /v1/metrics and /v1/status handlers.

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/collab/api"
	"repro/internal/obs"
)

// NodeInfo describes the serving node for /v1/status; provd fills it from
// its flags. The zero value reports a standalone node started when the
// handler was built.
type NodeInfo struct {
	Role       string    // api.Role*; "" reports standalone
	StoreDir   string    // store directory ("" for in-memory backends)
	Shards     int       // shard count (1 for unsharded stores)
	Durability string    // store.Durability string ("" when not applicable)
	Checkpoint string    // human-readable auto-checkpoint policy
	Cache      bool      // closure cache enabled
	Start      time.Time // process start (uptime origin)
}

// Request IDs are "<process>-<seq>": a per-process hex prefix (start time
// mixed with the PID) plus an atomic sequence number — unique within a
// fleet for tracing purposes without any coordination or crypto cost.
var (
	reqIDPrefix = fmt.Sprintf("%08x", uint32(time.Now().UnixNano())^uint32(os.Getpid())<<16)
	reqIDSeq    atomic.Uint64
)

func nextRequestID() string {
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDSeq.Add(1), 16)
}

// statusRecorder captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController so
// streaming handlers (SSE, replication) can still flush through the
// middleware.
func (r *statusRecorder) Unwrap() http.ResponseWriter {
	return r.ResponseWriter
}

// httpObs is the per-handler observability state threaded through every
// v1 route registration.
type httpObs struct {
	reg  *obs.Registry
	log  *slog.Logger  // nil: no request logging
	slow time.Duration // 0: no slow-query log
}

// instrument wraps one route's handler with the observability middleware.
// The route label is the route's literal path prefix — a closed set, so
// metric cardinality is bounded by the API surface, never by request paths. The
// latency histogram is resolved once at registration. The (route, code)
// counter is known only once the handler answers: the code="200" one is
// resolved on the route's first 200, so that no route lists a counter it
// never moved, and any other code per request.
func (h *httpObs) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	lat := h.reg.Histogram("prov_http_request_seconds",
		"Request latency by route.", obs.L("route", route))
	var ok200 atomic.Pointer[obs.Counter]
	count := func(code int) *obs.Counter {
		if c := ok200.Load(); c != nil && code == http.StatusOK {
			return c
		}
		c := h.reg.Counter("prov_http_requests_total", "Requests served by route and status code.",
			obs.L("route", route), obs.L("code", strconv.Itoa(code)))
		if code == http.StatusOK {
			ok200.Store(c)
		}
		return c
	}
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		id := req.Header.Get(api.HeaderRequestID)
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set(api.HeaderRequestID, id)
		rec := &statusRecorder{ResponseWriter: w}
		fn(rec, req)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		lat.Observe(dur)
		count(rec.status).Inc()
		slow := h.slow > 0 && dur >= h.slow
		if h.log == nil && !slow {
			return
		}
		attrs := []slog.Attr{slog.String("id", id), slog.String("method", req.Method),
			slog.String("route", route), slog.String("path", req.URL.Path),
			slog.Int("status", rec.status), slog.Duration("dur", dur)}
		if h.log != nil {
			h.log.LogAttrs(req.Context(), slog.LevelInfo, "request", append(attrs, slog.Int64("bytes", rec.bytes))...)
		}
		if slow {
			h.reg.Counter("prov_http_slow_requests_total",
				"Requests slower than the configured slow-query threshold.").Inc()
			logger := h.log
			if logger == nil {
				logger = slog.Default()
			}
			logger.LogAttrs(req.Context(), slog.LevelWarn, "slow request", append(attrs,
				slog.String("query", req.URL.RawQuery), slog.Duration("threshold", h.slow))...)
		}
	}
}

// metricsHandler serves the registry in Prometheus text exposition format.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = reg.WritePrometheus(w)
	}
}

// statusHandler serves /v1/status from the node description plus the
// live failover state: role and epoch come from the coordinator when
// one is wired (promotion changes them at runtime), replica state and
// lag from the follower's health.
func statusHandler(opts HandlerOptions) http.HandlerFunc {
	node := opts.Node
	if node.Role == "" {
		node.Role = api.RoleStandalone
	}
	if node.Shards == 0 {
		node.Shards = 1
	}
	if node.Start.IsZero() {
		node.Start = time.Now()
	}
	version, revision := buildVersion()
	return func(w http.ResponseWriter, req *http.Request) {
		ns := api.NodeStatus{
			Role:          node.Role,
			UptimeSeconds: time.Since(node.Start).Seconds(),
			StoreDir:      node.StoreDir,
			Shards:        node.Shards,
			Durability:    node.Durability,
			Checkpoint:    node.Checkpoint,
			ClosureCache:  node.Cache,
			GoVersion:     runtime.Version(),
			Version:       version,
			Revision:      revision,
		}
		if fo := opts.Failover; fo != nil {
			h, _ := fo.Health(opts.MaxLagBytes)
			ns.Role, ns.Epoch, ns.Fenced = h.Role, h.Epoch, h.Fenced
			if h.Replication != nil {
				ns.ReplicaState = h.Replication.State
				ns.ReplicaLagBytes = h.Replication.LagBytes
			}
		}
		writeJSON(w, http.StatusOK, ns)
	}
}

// healthHandler serves /v1/health: 200 while the node belongs in a load
// balancer's rotation, 503 when it does not (a disconnected or
// staleness-bounded follower), with the reason in the body either way.
// Nodes without a failover coordinator are simply alive: serving the
// request is the health check.
func healthHandler(opts HandlerOptions) http.HandlerFunc {
	role := opts.Node.Role
	if role == "" {
		role = api.RoleStandalone
	}
	return func(w http.ResponseWriter, req *http.Request) {
		if opts.Failover == nil {
			writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok", Role: role})
			return
		}
		h, ok := opts.Failover.Health(opts.MaxLagBytes)
		code := http.StatusOK
		if !ok {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	}
}

// buildVersion extracts the main-module version and vcs revision the
// binary was built at; empty strings when the build recorded neither
// (e.g. plain `go build` in a dirty tree or a test binary).
func buildVersion() (version, revision string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
		}
	}
	return version, revision
}
