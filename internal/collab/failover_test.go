package collab

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/collab/api"
)

// stubFailover is a scriptable FailoverState for handler-level tests;
// the real implementation (replica.Node) cannot be imported here without
// cycling through this package's tests.
type stubFailover struct {
	mu         sync.Mutex
	role       string
	epoch      uint64
	fenced     bool
	healthOK   bool
	health     api.HealthResponse
	applied    int64
	behind     int64
	promote    *api.PromoteResponse
	promoteErr error
}

func (s *stubFailover) Role() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role
}

func (s *stubFailover) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *stubFailover) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

func (s *stubFailover) Observe(remote uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if remote <= s.epoch {
		return false
	}
	s.epoch = remote
	if s.role == api.RolePrimary && !s.fenced {
		s.fenced = true
		return true
	}
	return false
}

func (s *stubFailover) Promote(ctx context.Context) (*api.PromoteResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.promoteErr != nil {
		return nil, s.promoteErr
	}
	s.role = api.RolePrimary
	s.fenced = false
	s.epoch++
	return s.promote, nil
}

func (s *stubFailover) Health(maxLag int64) (api.HealthResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health
	if h.Role == "" {
		h = api.HealthResponse{Status: "ok", Role: s.role, Epoch: s.epoch, Fenced: s.fenced}
	}
	return h, s.healthOK
}

func (s *stubFailover) Lag() (applied, behind int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied, s.behind
}

// TestV1EpochFencing pins the fencing exchange: lower request epochs are
// rejected with a stable code, higher ones are adopted (fencing the
// primary), and every response carries the node's epoch.
func TestV1EpochFencing(t *testing.T) {
	fo := &stubFailover{role: api.RolePrimary, epoch: 5, healthOK: true}
	srv, _ := seededServer(t, HandlerOptions{Failover: fo})

	send := func(epoch string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != "" {
			req.Header.Set(api.HeaderReplicationEpoch, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// No epoch header: served, and taught our epoch.
	resp := send("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain read = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderReplicationEpoch); got != "5" {
		t.Fatalf("response epoch = %q, want 5", got)
	}
	resp.Body.Close()

	// A lower epoch is acting on a fenced configuration: rejected, and the
	// rejection itself teaches the caller the current epoch.
	resp = send("3")
	if got := resp.Header.Get(api.HeaderReplicationEpoch); got != "5" {
		t.Fatalf("stale rejection epoch header = %q, want 5", got)
	}
	decodeEnvelope(t, resp, http.StatusConflict, api.CodeStaleEpoch)

	// A higher epoch is adopted — and fences this primary.
	resp = send("7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("higher-epoch read = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.HeaderReplicationEpoch); got != "7" {
		t.Fatalf("adopted epoch header = %q, want 7", got)
	}
	resp.Body.Close()
	if !fo.Fenced() || fo.Epoch() != 7 {
		t.Fatalf("after observing 7: epoch=%d fenced=%v", fo.Epoch(), fo.Fenced())
	}

	// The fenced primary still serves reads but rejects writes.
	resp = send("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fenced read = %d", resp.StatusCode)
	}
	resp.Body.Close()
	wresp, err := http.Post(srv.URL+"/v1/workflows", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, wresp, http.StatusForbidden, api.CodeFenced)
}

// TestV1ClientEpochExchange pins the api.Client side: the client adopts
// the epoch from every response and stamps it on every request.
func TestV1ClientEpochExchange(t *testing.T) {
	fo := &stubFailover{role: api.RolePrimary, epoch: 9, healthOK: true}
	srv, _ := seededServer(t, HandlerOptions{Failover: fo})
	c := api.NewClient(srv.URL, nil)

	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 9 {
		t.Fatalf("client epoch after first call = %d, want 9", c.Epoch())
	}
	// SetEpoch is monotone: a lower value never regresses it.
	c.SetEpoch(4)
	if c.Epoch() != 9 {
		t.Fatalf("SetEpoch(4) regressed the client to %d", c.Epoch())
	}
	// A raised client epoch reaches the server on the next request.
	c.SetEpoch(12)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if fo.Epoch() != 12 || !fo.Fenced() {
		t.Fatalf("server after client at 12: epoch=%d fenced=%v", fo.Epoch(), fo.Fenced())
	}
}

// TestV1FollowerMaxLag pins the staleness bound: past -max-lag, data
// reads answer 503 replica_too_stale while operational routes stay up.
func TestV1FollowerMaxLag(t *testing.T) {
	fo := &stubFailover{role: api.RoleFollower, epoch: 2, healthOK: true, applied: 1000, behind: 100}
	srv, _ := seededServer(t, HandlerOptions{Failover: fo, MaxLagBytes: 50})

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(api.HeaderReplicaLag); got != "100" {
		t.Fatalf("lag header = %q, want 100", got)
	}
	decodeEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeReplicaTooStale)

	// Operators can still see what is happening.
	for _, path := range []string{"/v1/status", "/v1/metrics", "/v1/replication/status"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while stale = %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Writes on a follower bounce regardless of lag.
	wresp, err := http.Post(srv.URL+"/v1/workflows", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, wresp, http.StatusForbidden, api.CodeReadOnlyReplica)
}

// TestV1HealthEndpoint pins /v1/health: in rotation (200) vs out (503),
// with the reason in the body either way.
func TestV1HealthEndpoint(t *testing.T) {
	// Without a failover coordinator, serving the request is the check.
	srv, _ := seededServer(t, HandlerOptions{})
	var h api.HealthResponse
	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standalone health = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Role != api.RoleStandalone {
		t.Fatalf("standalone health body = %+v", h)
	}

	// A disconnected follower answers 503 with its replication state.
	fo := &stubFailover{role: api.RoleFollower, epoch: 3, behind: 4096, healthOK: false,
		health: api.HealthResponse{
			Status: api.HealthDisconnected, Role: api.RoleFollower, Epoch: 3,
			Replication: &api.ReplicaHealth{State: api.HealthDisconnected, ConsecutiveFailures: 8, LagBytes: 4096},
		}}
	srv2, _ := seededServer(t, HandlerOptions{Failover: fo})
	resp, err = http.Get(srv2.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("disconnected health = %d, want 503", resp.StatusCode)
	}
	var h2 api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h2.Status != api.HealthDisconnected || h2.Replication == nil || h2.Replication.ConsecutiveFailures != 8 {
		t.Fatalf("disconnected health body = %+v", h2)
	}

	// The api.Client surfaces both sides without treating 503 as an error.
	hr, ok, err := api.NewClient(srv2.URL, nil).Health(context.Background())
	if err != nil || ok || hr.Status != api.HealthDisconnected {
		t.Fatalf("client Health = %+v, %v, %v", hr, ok, err)
	}
}

// TestV1PromoteEndpoint pins the cutover route: POST-only, failover
// coordinator required, conflicts surfaced with their own status, and a
// successful promotion passes the read-only guard on a follower.
func TestV1PromoteEndpoint(t *testing.T) {
	// No coordinator: the route exists but reports unavailable.
	srv, _ := seededServer(t, HandlerOptions{})
	resp, err := http.Post(srv.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, api.CodeUnavailable)

	// A follower promotes through the read-only guard.
	fo := &stubFailover{role: api.RoleFollower, epoch: 3, healthOK: true, applied: 123,
		promote: &api.PromoteResponse{Role: api.RolePrimary, Epoch: 4, AppliedBytes: 123, OldPrimaryFenced: true}}
	srv2, _ := seededServer(t, HandlerOptions{Failover: fo})

	resp, err = http.Get(srv2.URL + "/v1/replication/promote")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)

	c := api.NewClient(srv2.URL, nil)
	pr, err := c.Promote(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pr.Role != api.RolePrimary || pr.Epoch != 4 || !pr.OldPrimaryFenced {
		t.Fatalf("promote = %+v", pr)
	}
	// The client learned the post-cutover epoch.
	if c.Epoch() != 4 {
		t.Fatalf("client epoch after promote = %d, want 4", c.Epoch())
	}
	// The node now accepts writes: the middleware passes POSTs through
	// (this malformed body reaches the handler and fails validation there,
	// not at the replica guard).
	wresp, err := http.Post(srv2.URL+"/v1/workflows", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, wresp, http.StatusBadRequest, api.CodeBadRequest)

	// Promotion conflicts keep their own status and code.
	fo2 := &stubFailover{role: api.RoleFollower, epoch: 1, healthOK: true,
		promoteErr: &api.RemoteError{HTTPStatus: http.StatusConflict, Code: api.CodeConflict, Message: "already promoting"}}
	srv3, _ := seededServer(t, HandlerOptions{Failover: fo2})
	resp, err = http.Post(srv3.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusConflict, api.CodeConflict)
}

// TestV1StatusReportsFailover pins /v1/status surfacing the live role,
// epoch and replica state from the coordinator.
func TestV1StatusReportsFailover(t *testing.T) {
	fo := &stubFailover{role: api.RoleFollower, epoch: 6, healthOK: true, applied: 1, behind: 77,
		health: api.HealthResponse{
			Status: "ok", Role: api.RoleFollower, Epoch: 6,
			Replication: &api.ReplicaHealth{State: api.HealthDegraded, LagBytes: 77},
		}}
	srv, _ := seededServer(t, HandlerOptions{Failover: fo})

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ns api.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&ns); err != nil {
		t.Fatal(err)
	}
	if ns.Role != api.RoleFollower || ns.Epoch != 6 || ns.ReplicaState != api.HealthDegraded || ns.ReplicaLagBytes != 77 {
		t.Fatalf("status = %+v", ns)
	}
	if got := resp.Header.Get(api.HeaderReplicationEpoch); got != strconv.FormatUint(6, 10) {
		t.Fatalf("status epoch header = %q", got)
	}
}
