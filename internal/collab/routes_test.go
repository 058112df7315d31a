package collab

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/workloads"
)

// routeNodes are the four faces the route table is walked on: the
// failover gates answer differently on each.
var routeNodes = []struct {
	name   string
	fo     func() FailoverState
	maxLag int64
}{
	{"standalone", func() FailoverState { return nil }, 0},
	{"stale-follower", func() FailoverState {
		return &stubFailover{role: api.RoleFollower, epoch: 1, healthOK: true, applied: 100, behind: 50}
	}, 10},
	{"fresh-follower", func() FailoverState {
		return &stubFailover{role: api.RoleFollower, epoch: 1, healthOK: true, applied: 100, behind: 5}
	}, 10},
	{"fenced-primary", func() FailoverState {
		return &stubFailover{role: api.RolePrimary, epoch: 2, fenced: true, healthOK: true}
	}, 0},
}

// routeRows is every (route, method) pair of the v1 surface plus a few
// paths no route takes. Each want lists the answer per routeNodes entry:
// the status, then for a failure the envelope code ("-" when the body is
// not the JSON envelope), then for a 405 the Allow header. In a path,
// {run}, {art} and {sub} stand for a stored run, one of its artifacts and
// a registered subscription.
var routeRows = []struct {
	method, path, body string
	want               [4]string
}{
	{"GET", "/v1/metrics", "", [4]string{"200", "200", "200", "200"}},
	{"HEAD", "/v1/metrics", "", [4]string{"200", "200", "200", "200"}},
	{"POST", "/v1/metrics", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/status", "", [4]string{"200", "200", "200", "200"}},
	{"HEAD", "/v1/status", "", [4]string{"200", "200", "200", "200"}},
	{"POST", "/v1/status", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/health", "", [4]string{"200", "200", "200", "200"}},
	{"HEAD", "/v1/health", "", [4]string{"200", "200", "200", "200"}},
	{"POST", "/v1/health", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},

	{"GET", "/v1/workflows", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/workflows", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"POST", "/v1/workflows", publishBody, [4]string{"201", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"POST", "/v1/workflows", "{}", [4]string{"400 bad_request", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"DELETE", "/v1/workflows", "", [4]string{"405 method_not_allowed GET, POST", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/workflows/medimg", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/workflows/medimg", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"GET", "/v1/workflows/nope", "", [4]string{"404 not_found", "503 replica_too_stale", "404 not_found", "404 not_found"}},
	{"POST", "/v1/workflows/medimg", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/workflows/medimg/runs", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/workflows/medimg/runs", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"GET", "/v1/workflows/nope/runs", "", [4]string{"404 not_found", "503 replica_too_stale", "404 not_found", "404 not_found"}},
	{"DELETE", "/v1/workflows/medimg/runs", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"POST", "/v1/workflows/medimg/rating", `{"user":"ana","stars":4}`, [4]string{"200", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"POST", "/v1/workflows/medimg/rating", `{"user":"ana","stars":9}`, [4]string{"400 bad_request", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/workflows/medimg/rating", "", [4]string{"405 method_not_allowed POST", "503 replica_too_stale", "405 method_not_allowed POST", "405 method_not_allowed POST"}},
	{"HEAD", "/v1/workflows/medimg/rating", "", [4]string{"405 method_not_allowed POST", "503 replica_too_stale", "405 method_not_allowed POST", "405 method_not_allowed POST"}},
	{"GET", "/v1/runs/{run}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/runs/{run}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"GET", "/v1/runs/nope", "", [4]string{"404 not_found", "503 replica_too_stale", "404 not_found", "404 not_found"}},
	{"PUT", "/v1/runs/{run}", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},

	{"GET", "/v1/lineage?id={art}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/lineage?id={art}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"GET", "/v1/lineage", "", [4]string{"400 bad_request", "503 replica_too_stale", "400 bad_request", "400 bad_request"}},
	{"POST", "/v1/lineage?id={art}", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/dependents?id={art}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/dependents?id={art}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"POST", "/v1/dependents?id={art}", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/expand?ids={art}&dir=down", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/expand?ids={art}", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"GET", "/v1/expand?ids={art}&dir=sideways", "", [4]string{"400 bad_request", "503 replica_too_stale", "400 bad_request", "400 bad_request"}},
	{"POST", "/v1/expand?ids={art}", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/recommend?user=juliana", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/recommend?user=juliana", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"POST", "/v1/recommend?user=juliana", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/query?q=SELECT+id+FROM+runs", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/query?q=SELECT+id+FROM+runs", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"POST", "/v1/query?q=SELECT+id+FROM+runs", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/stats", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"HEAD", "/v1/stats", "", [4]string{"200", "503 replica_too_stale", "200", "200"}},
	{"POST", "/v1/stats", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},

	{"GET", "/v1/replication/status", "", [4]string{"200", "200", "200", "200"}},
	{"HEAD", "/v1/replication/status", "", [4]string{"200", "200", "200", "200"}},
	{"POST", "/v1/replication/status", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/replication/stream?shard=0&from=0", "", [4]string{"404 unavailable", "404 unavailable", "404 unavailable", "404 unavailable"}},
	{"HEAD", "/v1/replication/stream?shard=0&from=0", "", [4]string{"404 unavailable", "404 unavailable", "404 unavailable", "404 unavailable"}},
	{"POST", "/v1/replication/stream", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/v1/replication/checkpoint?shard=0", "", [4]string{"404 unavailable", "404 unavailable", "404 unavailable", "404 unavailable"}},
	{"POST", "/v1/replication/checkpoint", "", [4]string{"405 method_not_allowed GET", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"POST", "/v1/replication/promote", "", [4]string{"404 unavailable", "200", "200", "200"}},
	{"GET", "/v1/replication/promote", "", [4]string{"405 method_not_allowed POST", "405 method_not_allowed POST", "405 method_not_allowed POST", "405 method_not_allowed POST"}},

	{"GET", "/v1/subscriptions", "", [4]string{"200", "200", "200", "200"}},
	{"POST", "/v1/subscriptions", `{"kind":"closure","root":"{art}"}`, [4]string{"201", "201", "201", "201"}},
	{"POST", "/v1/subscriptions", `{"kind":"nope"}`, [4]string{"400 bad_request", "400 bad_request", "400 bad_request", "400 bad_request"}},
	{"DELETE", "/v1/subscriptions", "", [4]string{"405 method_not_allowed GET, POST", "405 method_not_allowed GET, POST", "405 method_not_allowed GET, POST", "405 method_not_allowed GET, POST"}},
	{"GET", "/v1/subscriptions/{sub}", "", [4]string{"200", "200", "200", "200"}},
	{"GET", "/v1/subscriptions/nope", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"DELETE", "/v1/subscriptions/{sub}", "", [4]string{"200", "200", "200", "200"}},
	{"DELETE", "/v1/subscriptions/nope", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"POST", "/v1/subscriptions/{sub}", "", [4]string{"405 method_not_allowed GET, DELETE", "405 method_not_allowed GET, DELETE", "405 method_not_allowed GET, DELETE", "405 method_not_allowed GET, DELETE"}},
	{"GET", "/v1/subscriptions/{sub}/events?poll=1&wait_ms=0", "", [4]string{"200", "200", "200", "200"}},
	{"GET", "/v1/subscriptions/nope/events?poll=1&wait_ms=0", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"POST", "/v1/subscriptions/{sub}/events", "", [4]string{"405 method_not_allowed GET", "405 method_not_allowed GET", "405 method_not_allowed GET", "405 method_not_allowed GET"}},

	{"GET", "/v1/nope", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"POST", "/v1/nope", "", [4]string{"404 not_found", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/stats", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"POST", "/workflows", "", [4]string{"404 not_found", "403 read_only_replica", "403 read_only_replica", "403 fenced"}},
	{"GET", "/", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"GET", "/v1/workflows/medimg/runs/extra", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
	{"GET", "/v1/subscriptions/{sub}/events/extra", "", [4]string{"404 not_found", "404 not_found", "404 not_found", "404 not_found"}},
}

const publishBody = `{"workflow":{"id":"wf-new","name":"new","modules":[{"id":"m","type":"T"}]},"owner":"ana"}`

// TestRouteTable walks routeRows on every node of routeNodes, each probe
// on a freshly seeded node so a write or a promotion cannot leak into the
// next probe.
func TestRouteTable(t *testing.T) {
	run := runOf(t, workloads.MedicalImaging())
	for _, row := range routeRows {
		for i, node := range routeNodes {
			h, vars := routeNode(t, run, node.fo(), node.maxLag)
			path, body := row.path, row.body
			for k, v := range vars {
				path = strings.ReplaceAll(path, k, v)
				body = strings.ReplaceAll(body, k, v)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(row.method, path, strings.NewReader(body)))
			if got := routeAnswer(rec); got != row.want[i] {
				t.Errorf("%s %s on %s: %q, want %q", row.method, row.path, node.name, got, row.want[i])
			}
		}
	}
}

// routeNode is a seeded node — medimg published, run stored, one closure
// subscription on an artifact of the run — behind fo, and the values of
// the path placeholders.
func routeNode(t *testing.T, run *provenance.RunLog, fo FailoverState, maxLag int64) (http.Handler, map[string]string) {
	t.Helper()
	st := store.NewMemStore()
	t.Cleanup(func() { st.Close() })
	mgr := standing.NewManager(st, standing.Options{})
	r := NewRepository(standing.NewTap(st, mgr))
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "juliana", "figure 1", "imaging"); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishRun("medimg", "juliana", run); err != nil {
		t.Fatal(err)
	}
	art := run.Artifacts[0].ID
	snap, err := mgr.Subscribe(standing.Spec{Kind: standing.KindClosure, Root: art})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandlerWith(r, HandlerOptions{Metrics: obs.NewRegistry(), Standing: mgr, Failover: fo, MaxLagBytes: maxLag})
	return h, map[string]string{"{run}": run.Run.ID, "{art}": art, "{sub}": snap.ID}
}

// routeAnswer renders a response as routeRows' want strings do.
func routeAnswer(rec *httptest.ResponseRecorder) string {
	if rec.Code < 300 {
		return fmt.Sprint(rec.Code)
	}
	code := "-"
	var env api.Error
	if json.Unmarshal(rec.Body.Bytes(), &env) == nil && env.Code != "" && env.Message != "" {
		code = env.Code
	}
	ans := fmt.Sprintf("%d %s", rec.Code, code)
	if allow := rec.Header().Get("Allow"); allow != "" || rec.Code == http.StatusMethodNotAllowed {
		ans += " " + allow
	}
	return ans
}
