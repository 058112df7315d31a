package collab

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestRequestIDMiddleware: every response carries an X-Request-ID; an
// incoming ID is propagated verbatim, a missing one is generated, and two
// generated IDs differ.
func TestRequestIDMiddleware(t *testing.T) {
	h := NewHandlerWith(NewRepository(store.NewMemStore()),
		HandlerOptions{Metrics: obs.NewRegistry()})
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	req.Header.Set(api.HeaderRequestID, "caller-trace-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.HeaderRequestID); got != "caller-trace-7" {
		t.Fatalf("incoming request ID not propagated: got %q", got)
	}

	var generated []string
	for i := 0; i < 2; i++ {
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(api.HeaderRequestID)
		if id == "" {
			t.Fatal("no X-Request-ID generated")
		}
		generated = append(generated, id)
	}
	if generated[0] == generated[1] {
		t.Fatalf("generated request IDs collide: %q", generated[0])
	}
}

// TestPerRouteCounters: requests land in prov_http_requests_total under
// their v1 route label and status code; a bare path is no route and
// counts under none.
func TestPerRouteCounters(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandlerWith(NewRepository(store.NewMemStore()), HandlerOptions{Metrics: reg})
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, path := range []string{"/v1/stats", "/v1/stats", "/stats", "/v1/runs/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if got := reg.Counter("prov_http_requests_total", "",
		obs.L("route", "/v1/stats"), obs.L("code", "200")).Value(); got != 2 {
		t.Errorf("stats 200 counter = %d, want 2 (the bare /stats is a 404 outside /v1)", got)
	}
	if got := reg.Counter("prov_http_requests_total", "",
		obs.L("route", "/v1/runs/"), obs.L("code", "404")).Value(); got != 1 {
		t.Errorf("runs 404 counter = %d, want 1", got)
	}
	if hist, ok := reg.FindHistogram("prov_http_request_seconds", obs.L("route", "/v1/stats")); !ok {
		t.Error("no latency histogram for /v1/stats")
	} else if n := hist.Snapshot().Count; n != 2 {
		t.Errorf("latency histogram count = %d, want 2", n)
	}
}

// TestMetricsEndpoint: /v1/metrics serves the registry as Prometheus text
// including the HTTP family recording the scrape's own route.
func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHandlerWith(NewRepository(store.NewMemStore()), HandlerOptions{Metrics: reg})
	srv := httptest.NewServer(h)
	defer srv.Close()

	if resp, err := http.Get(srv.URL + "/v1/stats"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	body, err := api.NewClient(srv.URL, nil).MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE prov_http_requests_total counter",
		`prov_http_requests_total{route="/v1/stats",code="200"} 1`,
		"# TYPE prov_http_request_seconds summary",
		`prov_http_request_seconds{route="/v1/stats",quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

// TestStatusEndpoint: /v1/status reports the configured node identity.
func TestStatusEndpoint(t *testing.T) {
	h := NewHandlerWith(NewRepository(store.NewMemStore()), HandlerOptions{
		Metrics: obs.NewRegistry(),
		Node: NodeInfo{
			Role:       api.RolePrimary,
			StoreDir:   "/data/prov",
			Shards:     4,
			Durability: "group",
			Checkpoint: "every 512 runs",
			Cache:      true,
			Start:      time.Now().Add(-time.Minute),
		},
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	ns, err := api.NewClient(srv.URL, nil).NodeStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Role != api.RolePrimary || ns.Shards != 4 || !ns.ClosureCache ||
		ns.StoreDir != "/data/prov" || ns.Durability != "group" {
		t.Errorf("unexpected status: %+v", ns)
	}
	if ns.UptimeSeconds < 59 {
		t.Errorf("uptime %.1fs, want >= 59s", ns.UptimeSeconds)
	}
	if ns.GoVersion == "" {
		t.Error("missing go version")
	}
}

// TestRequestAndSlowLogging: the request log carries the request ID and
// route; a zero slow threshold keeps the slow log quiet, a negative-cost
// threshold (1ns) escalates the same request to Warn with its query.
func TestRequestAndSlowLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	reg := obs.NewRegistry()
	h := NewHandlerWith(NewRepository(store.NewMemStore()), HandlerOptions{
		Metrics:     reg,
		RequestLog:  logger,
		SlowRequest: time.Nanosecond,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/query?q=bogus", nil)
	req.Header.Set(api.HeaderRequestID, "trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := buf.String()
	for _, want := range []string{
		`msg=request`, `id=trace-42`, `route=/v1/query`, `status=400`,
		`msg="slow request"`, `query="q=bogus"`, `level=WARN`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	if got := reg.Counter("prov_http_slow_requests_total", "").Value(); got != 1 {
		t.Errorf("slow counter = %d, want 1", got)
	}
}
