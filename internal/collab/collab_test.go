package collab

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func newRepo() *Repository {
	return NewRepository(store.NewMemStore())
}

func runOf(t *testing.T, wf *workflow.Workflow) *provenance.RunLog {
	t.Helper()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	col := provenance.NewCollector()
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 1})
	res, err := e.Run(context.Background(), wf, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := col.Log(res.RunID)
	return log
}

func TestPublishAndGet(t *testing.T) {
	r := newRepo()
	if err := r.Publish(workloads.MedicalImaging(), "juliana", "figure 1", "imaging"); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(workloads.MedicalImaging(), "x", "dup"); err == nil {
		t.Fatal("duplicate publish accepted")
	}
	e, err := r.Get("medimg")
	if err != nil {
		t.Fatal(err)
	}
	if e.Owner != "juliana" || e.Downloads != 1 {
		t.Fatalf("entry = %+v", e)
	}
	if _, err := r.Get("medimg"); err != nil {
		t.Fatal(err)
	}
	e2, _ := r.Peek("medimg")
	if e2.Downloads != 2 {
		t.Fatalf("downloads = %d", e2.Downloads)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("missing workflow returned")
	}
}

func TestPublishRejectsInvalid(t *testing.T) {
	r := newRepo()
	wf := workflow.New("bad", "bad")
	m := &workflow.Module{ID: "a", Type: "T"}
	if err := wf.AddModule(m); err != nil {
		t.Fatal(err)
	}
	if err := wf.AddModule(&workflow.Module{ID: "a", Type: "T"}); err == nil {
		t.Fatal("dup module")
	}
	// Force an invalid state directly.
	wf.Modules = append(wf.Modules, &workflow.Module{ID: "a", Type: "T"})
	if err := r.Publish(wf, "x", ""); err == nil {
		t.Fatal("invalid workflow published")
	}
}

func TestRatings(t *testing.T) {
	r := newRepo()
	if err := r.Publish(workloads.MedicalImaging(), "j", ""); err != nil {
		t.Fatal(err)
	}
	if err := r.Rate("medimg", "u1", 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Rate("medimg", "u2", 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Rate("medimg", "u1", 6); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
	e, _ := r.Peek("medimg")
	avg, ok := e.AverageRating()
	if !ok || avg != 4 {
		t.Fatalf("avg = %v, %v", avg, ok)
	}
}

func TestPublishRunAndQuery(t *testing.T) {
	r := newRepo()
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "j", ""); err != nil {
		t.Fatal(err)
	}
	log := runOf(t, wf)
	if err := r.PublishRun("medimg", "u1", log); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishRun("ghost", "u1", log); err == nil {
		t.Fatal("run for unknown workflow accepted")
	}
	runs := r.RunsOf("medimg")
	if len(runs) != 1 || runs[0] != log.Run.ID {
		t.Fatalf("runs = %v", runs)
	}
	if r.UserOfRun(log.Run.ID) != "u1" {
		t.Fatal("run attribution lost")
	}
	st := r.Stat()
	if st.Workflows != 1 || st.Runs != 1 || st.Users < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// A run is published only under the workflow it is a run of: one naming
// another published workflow is refused, and neither the store nor the
// repository's indexes record it.
func TestPublishRunRejectsOtherWorkflow(t *testing.T) {
	r := newRepo()
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "j", ""); err != nil {
		t.Fatal(err)
	}
	other := workloads.Chain(3)
	if err := r.Publish(other, "j", ""); err != nil {
		t.Fatal(err)
	}
	log := runOf(t, wf)
	if err := r.PublishRun(other.ID, "u1", log); err == nil {
		t.Fatalf("run of %q published under %q", log.Run.WorkflowID, other.ID)
	}
	if runs := r.RunsOf(other.ID); len(runs) != 0 {
		t.Fatalf("runs of %s = %v", other.ID, runs)
	}
	if _, err := r.Store().RunLog(log.Run.ID); err == nil {
		t.Fatal("refused run was stored")
	}
	// The same run under its own workflow is accepted.
	if err := r.PublishRun(wf.ID, "u1", log); err != nil {
		t.Fatal(err)
	}
}

func TestSearch(t *testing.T) {
	r := newRepo()
	if err := r.Publish(workloads.MedicalImaging(), "juliana", "CT isosurface study", "imaging"); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(workloads.Genomics("s1"), "susan", "variant calling pipeline", "genomics"); err != nil {
		t.Fatal(err)
	}
	hits := r.Search("isosurface imaging", 10)
	if len(hits) == 0 || hits[0].WorkflowID != "medimg" {
		t.Fatalf("hits = %+v", hits)
	}
	hits = r.Search("variant", 10)
	if len(hits) != 1 || hits[0].WorkflowID != "genomics-s1" {
		t.Fatalf("hits = %+v", hits)
	}
	// Module types are searchable.
	hits = r.Search("Contour", 10)
	if len(hits) != 1 || hits[0].WorkflowID != "medimg" {
		t.Fatalf("hits = %+v", hits)
	}
	if r.Search("", 10) != nil {
		t.Fatal("empty query returned hits")
	}
	if got := r.Search("nonexistentterm", 10); len(got) != 0 {
		t.Fatalf("hits = %v", got)
	}
}

func TestSynthesizeCommunityAndRecommend(t *testing.T) {
	r := newRepo()
	users, err := SynthesizeCommunity(r, CommunityOptions{Seed: 42, Users: 12, RunsEach: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 12 {
		t.Fatalf("users = %d", len(users))
	}
	st := r.Stat()
	if st.Workflows != 5 || st.Runs != 36 {
		t.Fatalf("stats = %+v", st)
	}
	// At least one user gets a non-empty recommendation excluding what
	// they already ran.
	got := 0
	for _, u := range users {
		recs := r.Recommend(u, 3)
		mine := map[string]bool{}
		for _, wfID := range r.List() {
			for _, runID := range r.RunsOf(wfID) {
				if r.UserOfRun(runID) == u {
					mine[wfID] = true
				}
			}
		}
		for _, rec := range recs {
			if mine[rec.WorkflowID] {
				t.Fatalf("recommended already-run workflow %s to %s", rec.WorkflowID, u)
			}
		}
		if len(recs) > 0 {
			got++
		}
	}
	if got == 0 {
		t.Fatal("no user received recommendations")
	}
	// Unknown user: nil.
	if r.Recommend("stranger", 3) != nil {
		t.Fatal("recommendations for unknown user")
	}
}

// A HEAD of a workflow sends no body, so it counts no download: two HEADs
// and one GET leave the entry at one.
func TestHeadWorkflowCountsNoDownload(t *testing.T) {
	r := newRepo()
	if err := r.Publish(workloads.MedicalImaging(), "juliana", "figure 1"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	for _, method := range []string{http.MethodHead, http.MethodHead, http.MethodGet} {
		req, err := http.NewRequest(method, srv.URL+api.V1Prefix+"/workflows/medimg", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", method, resp.StatusCode)
		}
	}
	if e, _ := r.Peek("medimg"); e.Downloads != 1 {
		t.Fatalf("downloads = %d after two HEADs and one GET, want 1", e.Downloads)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := newRepo()
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "juliana", "figure 1", "imaging"); err != nil {
		t.Fatal(err)
	}
	log := runOf(t, wf)
	if err := r.PublishRun("medimg", "u1", log); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + api.V1Prefix + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var ids []string
	if code := getJSON("/workflows", &ids); code != 200 || len(ids) != 1 {
		t.Fatalf("list: %d %v", code, ids)
	}
	var entry Entry
	if code := getJSON("/workflows/medimg", &entry); code != 200 || entry.Owner != "juliana" {
		t.Fatalf("get: %d %+v", code, entry.Owner)
	}
	if code := getJSON("/workflows/ghost", nil); code != 404 {
		t.Fatalf("missing workflow: %d", code)
	}
	var runs []string
	if code := getJSON("/workflows/medimg/runs", &runs); code != 200 || len(runs) != 1 {
		t.Fatalf("runs: %d %v", code, runs)
	}
	var gotLog provenance.RunLog
	if code := getJSON("/runs/"+log.Run.ID, &gotLog); code != 200 || len(gotLog.Executions) != 4 {
		t.Fatalf("run log: %d", code)
	}
	// Lineage over HTTP.
	imageArt := ""
	for _, a := range log.Artifacts {
		if a.Type == workloads.TypeImage {
			imageArt = a.ID
		}
	}
	var lineage []string
	if code := getJSON("/lineage?id="+imageArt, &lineage); code != 200 || len(lineage) == 0 {
		t.Fatalf("lineage: %d %v", code, lineage)
	}
	if code := getJSON("/lineage", nil); code != 400 {
		t.Fatalf("lineage without id: %d", code)
	}
	if code := getJSON("/lineage?id=ghost", nil); code != 404 {
		t.Fatalf("lineage ghost: %d", code)
	}
	var deps []string
	gridArt := ""
	for _, a := range log.Artifacts {
		if a.Type == workloads.TypeGrid {
			gridArt = a.ID
		}
	}
	if code := getJSON("/dependents?id="+gridArt, &deps); code != 200 || len(deps) != 7 {
		t.Fatalf("dependents: %d %v", code, deps)
	}
	// Batch frontier expansion over HTTP: both artifacts in one call.
	var adj map[string][]string
	if code := getJSON("/expand?ids="+imageArt+","+gridArt+"&dir=down", &adj); code != 200 || len(adj) != 2 {
		t.Fatalf("expand: %d %v", code, adj)
	}
	if len(adj[gridArt]) != 2 {
		t.Fatalf("expand grid consumers = %v", adj[gridArt])
	}
	if code := getJSON("/expand?ids="+imageArt+"&dir=sideways", nil); code != 400 {
		t.Fatalf("expand bad dir: %d", code)
	}
	if code := getJSON("/expand", nil); code != 400 {
		t.Fatalf("expand without ids: %d", code)
	}
	// PQL over HTTP.
	var qres struct {
		Columns []string   `json:"Columns"`
		Rows    [][]string `json:"Rows"`
	}
	q := "/query?q=" + urlQuery("SELECT module FROM executions WHERE status = 'ok' ORDER BY module")
	if code := getJSON(q, &qres); code != 200 || len(qres.Rows) != 4 {
		t.Fatalf("query: %d %+v", code, qres)
	}
	if code := getJSON("/query?q="+urlQuery("BOGUS"), nil); code != 400 {
		t.Fatal("bad query accepted")
	}
	// Stats.
	var st Stats
	if code := getJSON("/stats", &st); code != 200 || st.Workflows != 1 {
		t.Fatalf("stats: %d %+v", code, st)
	}
	// Publish over HTTP.
	body, err := json.Marshal(map[string]any{
		"workflow":    workloads.Genomics("s9"),
		"owner":       "bob",
		"description": "uploaded via API",
		"tags":        []string{"genomics"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+api.V1Prefix+"/workflows", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("publish: %d", resp.StatusCode)
	}
	// Rate over HTTP.
	resp, err = http.Post(srv.URL+api.V1Prefix+"/workflows/medimg/rating", "application/json",
		bytes.NewReader([]byte(`{"user":"u1","stars":5}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("rate: %d", resp.StatusCode)
	}
	e2, _ := r.Peek("medimg")
	if _, ok := e2.AverageRating(); !ok {
		t.Fatal("rating not recorded")
	}
}

func urlQuery(q string) string {
	out := ""
	for _, r := range q {
		switch r {
		case ' ':
			out += "%20"
		case '\'':
			out += "%27"
		case '=':
			out += "%3D"
		default:
			out += string(r)
		}
	}
	return out
}

func TestHTTPSearch(t *testing.T) {
	r := newRepo()
	if err := r.Publish(workloads.MedicalImaging(), "j", "isosurface", "imaging"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + api.V1Prefix + "/workflows?q=isosurface")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hits []SearchResult
	if err := json.NewDecoder(resp.Body).Decode(&hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].WorkflowID != "medimg" {
		t.Fatalf("hits = %+v", hits)
	}
}

func TestStatValues(t *testing.T) {
	r := newRepo()
	users, err := SynthesizeCommunity(r, CommunityOptions{Seed: 7, Users: 4, RunsEach: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stat()
	if st.Users < len(users) {
		t.Fatalf("stats users = %d < %d", st.Users, len(users))
	}
	_ = fmt.Sprint(st)
}

// TestHTTPClosureEndpointsCached runs the closure-serving endpoints over a
// store wrapped in the incremental closure cache (how provd -cache deploys
// it): warm queries must match the first answers, and runs published after
// the cache warmed must show up in subsequent closure responses via the
// ingest-time patch, not a flush.
func TestHTTPClosureEndpointsCached(t *testing.T) {
	cached := closurecache.Wrap(store.NewMemStore())
	r := NewRepository(cached)
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "juliana", "figure 1", "imaging"); err != nil {
		t.Fatal(err)
	}
	log := runOf(t, wf)
	if err := r.PublishRun("medimg", "u1", log); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	getJSON := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + api.V1Prefix + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	gridArt := ""
	for _, a := range log.Artifacts {
		if a.Type == workloads.TypeGrid {
			gridArt = a.ID
		}
	}
	var cold, warm []string
	if code := getJSON("/dependents?id="+gridArt, &cold); code != 200 || len(cold) == 0 {
		t.Fatalf("dependents cold: %d %v", code, cold)
	}
	if code := getJSON("/dependents?id="+gridArt, &warm); code != 200 {
		t.Fatal("dependents warm failed")
	}
	if fmt.Sprint(cold) != fmt.Sprint(warm) {
		t.Fatalf("warm closure diverged: %v vs %v", cold, warm)
	}
	if m := cached.Metrics(); m.ClosureHits == 0 {
		t.Fatalf("warm request missed the cache: %+v", m)
	}

	// Publish a second run of the same workflow after the cache warmed; its
	// entities must be reachable through the cached endpoints.
	log2 := runOf(t, wf)
	if err := r.PublishRun("medimg", "u2", log2); err != nil {
		t.Fatal(err)
	}
	var adj map[string][]string
	if code := getJSON("/expand?ids="+gridArt+"&dir=down", &adj); code != 200 || len(adj[gridArt]) == 0 {
		t.Fatalf("expand post-ingest: %d %v", code, adj)
	}
	var lineage []string
	imageArt2 := ""
	for _, a := range log2.Artifacts {
		if a.Type == workloads.TypeImage {
			imageArt2 = a.ID
		}
	}
	if code := getJSON("/lineage?id="+imageArt2, &lineage); code != 200 || len(lineage) == 0 {
		t.Fatalf("lineage of second run: %d %v", code, lineage)
	}
	want, err := store.NaiveClosure(cached.Underlying(), imageArt2, store.Up)
	if err != nil {
		t.Fatal(err)
	}
	// Cached closures guarantee set equality, not BFS order; compare sorted.
	sort.Strings(lineage)
	sort.Strings(want)
	if fmt.Sprint(lineage) != fmt.Sprint(want) {
		t.Fatalf("cached lineage diverged:\n got %v\nwant %v", lineage, want)
	}
}

// TestConcurrentGetAndRate: GET /v1/workflows/{id} encodes the entry
// while ratings land on it; the entry the handler encodes must be its own
// copy, or the encoder reads Downloads and iterates Ratings while Get and
// Rate write them (a data race under -race, a fatal concurrent map
// iteration and write without it).
func TestConcurrentGetAndRate(t *testing.T) {
	r := newRepo()
	if err := r.Publish(workloads.MedicalImaging(), "juliana", ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	const rounds = 200
	done := make(chan error, 2)
	go func() {
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(srv.URL + "/v1/workflows/medimg")
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			body := fmt.Sprintf(`{"user":"u%d","stars":%d}`, i, 1+i%5)
			resp, err := http.Post(srv.URL+"/v1/workflows/medimg/rating", "application/json", bytes.NewBufferString(body))
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	e, err := r.Peek("medimg")
	if err != nil {
		t.Fatal(err)
	}
	if e.Downloads != rounds || len(e.Ratings) != rounds {
		t.Fatalf("downloads %d, ratings %d, want %d each", e.Downloads, len(e.Ratings), rounds)
	}
}
