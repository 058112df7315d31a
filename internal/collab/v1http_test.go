package collab

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/obs"
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

// TestV1IDListAnswersAreEncodingJSONs: /v1/lineage, /v1/dependents and
// /v1/expand send, under a Content-Length, exactly the bytes json.Encoder
// writes for the store's answer, on IDs that need escaping as well as
// plain ones, on empty answers and on an unknown entity; api.Client
// decodes each as json.Unmarshal decodes the same body.
func TestV1IDListAnswersAreEncodingJSONs(t *testing.T) {
	st := store.NewMemStore()
	run := func(id, exec string, ins, outs []string) *provenance.RunLog {
		l := &provenance.RunLog{Run: provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}}
		l.Executions = []*provenance.Execution{{ID: exec, RunID: id, ModuleID: "m", Status: provenance.StatusOK}}
		add := func(art string, kind provenance.EventKind) {
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art, RunID: id})
			l.Events = append(l.Events, provenance.Event{Seq: uint64(len(l.Events) + 1), RunID: id, Kind: kind, ExecutionID: exec, ArtifactID: art})
		}
		for _, a := range ins {
			add(a, provenance.EventArtifactUsed)
		}
		for _, a := range outs {
			add(a, provenance.EventArtifactGen)
		}
		return l
	}
	// The last ID is long enough that its answers outgrow the buffer
	// net/http sizes a body by on its own.
	entities := []string{"src é\u2028", `x<1>&"q"`, "out\\tab\t", "plain-art", "bad\xff", "y<exec", "tail\x01", "alone-" + strings.Repeat("z", 4096)}
	for _, l := range []*provenance.RunLog{
		run("r1", entities[1], []string{entities[0]}, []string{entities[2], entities[3]}),
		run("r2", entities[5], []string{entities[3], entities[2]}, []string{entities[4], entities[6]}),
		run("r3", "lonely-exec", nil, []string{entities[7]}),
	} {
		if err := st.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewHandlerWith(NewRepository(st), HandlerOptions{}))
	t.Cleanup(srv.Close)
	c := api.NewClient(srv.URL, nil)

	// check GETs path and holds its answer to want, json.Encoder's
	// encoding of the store's answer, and the client's decode, got, to
	// json.Unmarshal's decode of the body.
	check := func(path string, answer any, got any, gotErr error) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(answer); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v", path, resp.StatusCode, err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("GET %s = %q, encoding/json writes %q", path, body, want.Bytes())
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("GET %s: Content-Length %q for a %d-byte body", path, cl, len(body))
		}
		decoded := reflect.New(reflect.TypeOf(answer))
		if err := json.Unmarshal(body, decoded.Interface()); err != nil || gotErr != nil ||
			!reflect.DeepEqual(got, decoded.Elem().Interface()) {
			t.Errorf("client on GET %s = %#v, %v; json.Unmarshal: %#v, %v", path, got, gotErr, decoded.Elem().Interface(), err)
		}
	}
	for _, id := range entities {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			answer, err := st.Closure(id, dir)
			if err != nil {
				t.Fatal(err)
			}
			route, call := "/v1/lineage", c.Lineage
			if dir == store.Down {
				route, call = "/v1/dependents", c.Dependents
			}
			got, err := call(id)
			check(route+"?id="+url.QueryEscape(id), answer, got, err)
		}
	}
	for _, ids := range [][]string{entities, entities[7:], {"nope"}} {
		for _, dir := range []store.Direction{store.Up, store.Down} {
			answer, err := st.Expand(ids, dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Expand(ids, dir.String())
			check("/v1/expand?ids="+url.QueryEscape(strings.Join(ids, ","))+"&dir="+dir.String(), answer, got, err)
		}
	}

	resp, err := http.Get(srv.URL + "/v1/lineage?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusNotFound, api.CodeNotFound)
	var re *api.RemoteError
	if _, err := c.Dependents("nope"); !errors.As(err, &re) || re.HTTPStatus != http.StatusNotFound || re.Code != api.CodeNotFound {
		t.Fatalf("Dependents(nope) = %v, want a 404 not_found RemoteError", err)
	}
}

// TestV1IDListAnswersConcurrently: one api.Client and one handler shared
// by several goroutines, so the pooled buffers on both ends and the
// route's cached request counter are reached at once; every answer must
// still be the store's.
func TestV1IDListAnswersConcurrently(t *testing.T) {
	srv, repo := seededServer(t, HandlerOptions{Metrics: obs.NewRegistry()})
	c := api.NewClient(srv.URL, nil)
	runs, err := c.RunsOf("medimg")
	if err != nil || len(runs) != 1 {
		t.Fatalf("RunsOf = %v, %v", runs, err)
	}
	l, err := repo.Store().RunLog(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := l.Artifacts[(g+i)%len(l.Artifacts)].ID
				want, err := repo.Store().Closure(id, store.Down)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := c.Dependents(id)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("Dependents(%s) = %v, %v; want %v", id, got, err, want)
					return
				}
				wantAdj, err := repo.Store().Expand([]string{id}, store.Up)
				if err != nil {
					t.Error(err)
					return
				}
				gotAdj, err := c.Expand([]string{id}, "up")
				if err != nil || !reflect.DeepEqual(gotAdj, wantAdj) {
					t.Errorf("Expand(%s) = %v, %v; want %v", id, gotAdj, err, wantAdj)
					return
				}
			}
		}()
	}
	wg.Wait()
}
