package collab

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workloads"
)

// seededServer publishes a workflow plus one run and serves it.
func seededServer(t *testing.T, opts HandlerOptions) (*httptest.Server, *Repository) {
	t.Helper()
	r := newRepo()
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "juliana", "figure 1", "imaging"); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishRun("medimg", "juliana", runOf(t, wf)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerWith(r, opts))
	t.Cleanup(srv.Close)
	return srv, r
}

// decodeEnvelope asserts the response is the shared v1 error envelope
// and returns it.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) api.Error {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	var env api.Error
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Code != wantCode || env.Message == "" {
		t.Fatalf("envelope = %+v, want code %q and a message", env, wantCode)
	}
	return env
}

func TestV1ErrorEnvelope(t *testing.T) {
	srv, _ := seededServer(t, HandlerOptions{})

	resp, err := http.Get(srv.URL + "/v1/workflows/nope")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, api.CodeNotFound)

	resp, err = http.Get(srv.URL + "/v1/lineage") // missing id param
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusBadRequest, api.CodeBadRequest)
}

func TestV1MethodChecks(t *testing.T) {
	srv, _ := seededServer(t, HandlerOptions{})
	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/v1/workflows", "GET, POST"},
		{http.MethodPost, "/v1/stats", "GET"},
		{http.MethodPost, "/v1/lineage?id=x", "GET"},
		{http.MethodGet, "/v1/workflows/medimg/rating", "POST"},
		{http.MethodPost, "/v1/replication/status", "GET"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		decodeEnvelope(t, resp, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed)
	}
}

// TestBareRoutesAreNotServed: /v1 is the API; the paths that used to alias
// into it answer 404.
func TestBareRoutesAreNotServed(t *testing.T) {
	srv, _ := seededServer(t, HandlerOptions{})
	for _, path := range []string{
		"/workflows", "/workflows/medimg", "/runs/x", "/lineage?id=x", "/dependents?id=x",
		"/expand?ids=x", "/recommend?user=u", "/query?q=SELECT+*+FROM+runs", "/stats",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// faultyStore is a store whose reads below the resident indexes fail: the
// log and row scans PQL's leaf tables run on, and the closure traversal.
type faultyStore struct {
	store.Store
}

var errDisk = errors.New("read provlog.jsonl: input/output error")

func (faultyStore) ScanLogs(int, func(*provenance.RunLog) error) error { return errDisk }
func (faultyStore) ScanRows(func(*store.RunRows) error) error          { return errDisk }
func (faultyStore) Closure(string, store.Direction) ([]string, error)  { return nil, errDisk }

// TestV1ErrorClasses: a query the client got wrong is 400, an entity the
// store does not hold is 404, and a read the store failed is 500 — on the
// closure routes and on /v1/query, with and without the explain hook.
func TestV1ErrorClasses(t *testing.T) {
	get := func(srv *httptest.Server, path, pqlSrc string) *http.Response {
		t.Helper()
		u := srv.URL + api.V1Prefix + path
		if pqlSrc != "" {
			u += "?q=" + url.QueryEscape(pqlSrc)
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, explain := range []func(string, string){nil, func(string, string) {}} {
		healthy, _ := seededServer(t, HandlerOptions{ExplainQueries: explain})
		decodeEnvelope(t, get(healthy, "/query", "SELEC id FROM runs"), http.StatusBadRequest, api.CodeBadRequest)
		decodeEnvelope(t, get(healthy, "/query", "SELECT nope FROM runs"), http.StatusBadRequest, api.CodeBadRequest)
		decodeEnvelope(t, get(healthy, "/query", "SELECT id FROM runs ORDER BY nope"), http.StatusBadRequest, api.CodeBadRequest)
		decodeEnvelope(t, get(healthy, "/query", "LINEAGE OF 'ghost'"), http.StatusNotFound, api.CodeNotFound)
		decodeEnvelope(t, get(healthy, "/lineage?id=ghost", ""), http.StatusNotFound, api.CodeNotFound)

		faulty := httptest.NewServer(NewHandlerWith(
			NewRepository(faultyStore{store.NewMemStore()}), HandlerOptions{ExplainQueries: explain}))
		t.Cleanup(faulty.Close)
		for _, q := range []string{"SELECT id FROM runs", "LINEAGE OF 'x'", "DEPENDENTS OF 'x'"} {
			env := decodeEnvelope(t, get(faulty, "/query", q), http.StatusInternalServerError, api.CodeInternal)
			if !strings.Contains(env.Message, errDisk.Error()) {
				t.Errorf("%s: message %q does not carry the store's error", q, env.Message)
			}
		}
		// Validation still wins over the fault: it runs before any read.
		decodeEnvelope(t, get(faulty, "/query", "SELECT nope FROM runs"), http.StatusBadRequest, api.CodeBadRequest)
		decodeEnvelope(t, get(faulty, "/lineage?id=x", ""), http.StatusInternalServerError, api.CodeInternal)
		decodeEnvelope(t, get(faulty, "/dependents?id=x", ""), http.StatusInternalServerError, api.CodeInternal)
	}
}

func TestV1ReadOnlyFollowerFace(t *testing.T) {
	fo := &stubFailover{role: api.RoleFollower, epoch: 1, healthOK: true, applied: 12345, behind: 67}
	srv, _ := seededServer(t, HandlerOptions{Failover: fo})

	// Reads pass and carry the staleness headers.
	resp, err := http.Get(srv.URL + "/v1/workflows")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d", resp.StatusCode)
	}
	if a := resp.Header.Get(api.HeaderReplicaApplied); a != "12345" {
		t.Fatalf("%s = %q", api.HeaderReplicaApplied, a)
	}
	if l := resp.Header.Get(api.HeaderReplicaLag); l != "67" {
		t.Fatalf("%s = %q", api.HeaderReplicaLag, l)
	}

	// Writes bounce with the stable read_only_replica code — on v1 and
	// legacy paths alike.
	for _, path := range []string{"/v1/workflows", "/workflows"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusForbidden, api.CodeReadOnlyReplica)
	}
}

func TestV1ReplicationEndpointsWithoutSource(t *testing.T) {
	srv, _ := seededServer(t, HandlerOptions{})

	// No Status hook: the node reports itself standalone.
	var rs api.ReplicationStatus
	resp, err := http.Get(srv.URL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rs.Role != api.RoleStandalone || len(rs.Shards) != 0 {
		t.Fatalf("status = %+v", rs)
	}

	// No Source: stream and checkpoint are unavailable, not panics.
	for _, path := range []string{
		"/v1/replication/stream?shard=0&from=0&max=0",
		"/v1/replication/checkpoint?shard=0",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		decodeEnvelope(t, resp, http.StatusNotFound, api.CodeUnavailable)
	}
}

// TestV1ClientRoundtrip drives every typed client method against a live
// handler and checks remote errors surface as *api.RemoteError with the
// envelope's code.
func TestV1ClientRoundtrip(t *testing.T) {
	srv, repo := seededServer(t, HandlerOptions{})
	c := api.NewClient(srv.URL, nil)

	ids, err := c.Workflows()
	if err != nil || !reflect.DeepEqual(ids, []string{"medimg"}) {
		t.Fatalf("Workflows = %v, %v", ids, err)
	}
	hits, err := c.Search("imaging")
	if err != nil || len(hits) == 0 || hits[0].WorkflowID != "medimg" {
		t.Fatalf("Search = %+v, %v", hits, err)
	}

	wf := workloads.Genomics("sample-1")
	id, err := c.PublishWorkflow(wf, "carlos", "alignment pipeline", "genomics")
	if err != nil || id != wf.ID {
		t.Fatalf("PublishWorkflow = %q, %v", id, err)
	}
	if err := c.Rate(id, "juliana", 4); err != nil {
		t.Fatal(err)
	}

	runs, err := c.RunsOf("medimg")
	if err != nil || len(runs) != 1 {
		t.Fatalf("RunsOf = %v, %v", runs, err)
	}
	l, err := c.RunLog(runs[0])
	if err != nil || l.Run.ID != runs[0] {
		t.Fatalf("RunLog = %+v, %v", l, err)
	}

	// Closures via the client agree with the store.
	var someArtifact string
	for _, a := range l.Artifacts {
		someArtifact = a.ID
		break
	}
	up, err := c.Lineage(someArtifact)
	if err != nil {
		t.Fatal(err)
	}
	want, err := repo.Store().Closure(someArtifact, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(up)
	sort.Strings(want)
	if !reflect.DeepEqual(up, want) {
		t.Fatalf("Lineage = %v, want %v", up, want)
	}
	if _, err := c.Dependents(someArtifact); err != nil {
		t.Fatal(err)
	}
	adj, err := c.Expand([]string{someArtifact}, "up")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adj[someArtifact]; !ok {
		t.Fatalf("Expand missing seed: %v", adj)
	}

	res, err := c.Query("SELECT module FROM executions")
	if err != nil || len(res.Columns) == 0 {
		t.Fatalf("Query = %+v, %v", res, err)
	}
	st, err := c.Stats()
	if err != nil || st.Workflows != 2 || st.Runs != 1 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	rs, err := c.ReplicationStatus()
	if err != nil || rs.Role != api.RoleStandalone {
		t.Fatalf("ReplicationStatus = %+v, %v", rs, err)
	}

	// Remote failures carry the envelope code.
	_, err = c.RunLog("nope")
	var remote *api.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *api.RemoteError", err)
	}
	if remote.HTTPStatus != http.StatusNotFound || remote.Code != api.CodeNotFound {
		t.Fatalf("remote = %+v", remote)
	}
}
