package collab

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/query/standing"
	"repro/internal/workloads"
)

// FuzzSubscribeWire feeds arbitrary bytes to the subscription wire
// decoding: a body that decodes as api.SubscribeRequest and is accepted by
// specFromWire must survive specToWire → specFromWire unchanged in every
// field its kind uses, and any string as a Last-Event-ID header or a
// ?from parameter must resolve to a cursor or an error, never a panic.
func FuzzSubscribeWire(f *testing.F) {
	f.Add([]byte(`{"kind":"closure","root":"art-1","direction":"down"}`), "7")
	f.Add([]byte(`{"kind":"closure","root":"art-1"}`), "")
	f.Add([]byte(`{"kind":"triple","subject":"e","predicate":"prov:used"}`), "18446744073709551615")
	f.Add([]byte(`{"kind":"conjunctive","query":"used(E, A)","output":["A"]}`), "-1")
	f.Add([]byte(`{"kind":"closure","direction":"sideways"}`), "18446744073709551616")
	f.Add([]byte(`{"kind":"nope","output":[]}`), "0x10")
	f.Fuzz(func(t *testing.T, body []byte, cursor string) {
		var req api.SubscribeRequest
		if json.Unmarshal(body, &req) == nil {
			if spec, err := specFromWire(req); err == nil {
				back, err := specFromWire(specToWire(spec))
				if err != nil {
					t.Fatalf("%+v: round trip rejected: %v", spec, err)
				}
				if !sameUsedFields(spec, back) {
					t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
				}
			}
		}

		byHeader := httptest.NewRequest("GET", "/", nil)
		byHeader.Header.Set("Last-Event-ID", cursor)
		byQuery := httptest.NewRequest("GET", "/", nil)
		byQuery.URL.RawQuery = url.Values{"from": {cursor}}.Encode()
		for _, r := range []*http.Request{byHeader, byQuery} {
			from, explicit, err := eventCursor(r)
			if err != nil && (from != 0 || explicit) {
				t.Fatalf("cursor %q: error %v with from=%d explicit=%v", cursor, err, from, explicit)
			}
			if cursor == "" && (explicit || err != nil) {
				t.Fatalf("an empty cursor resolved to from=%d explicit=%v err=%v", from, explicit, err)
			}
		}
	})
}

// sameUsedFields compares two specs on the fields their kind reads.
func sameUsedFields(a, b standing.Spec) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case standing.KindClosure:
		return a.Root == b.Root && a.Dir == b.Dir
	case standing.KindTriple:
		return a.Pattern == b.Pattern
	case standing.KindConjunctive:
		return a.Query == b.Query && slices.Equal(a.Output, b.Output)
	}
	return true
}

// FuzzAPIBodies sends arbitrary bytes as the body of the two routes that
// decode one into repository state, POST /v1/workflows and POST
// /v1/workflows/{id}/rating, on a seeded repository. A body is the
// client's to get wrong: every answer is a 2xx or a 4xx, never a 5xx or a
// panic, and every non-2xx answer is the {"error","code"} envelope.
func FuzzAPIBodies(f *testing.F) {
	f.Add([]byte(`{"workflow":{"id":"wf","name":"n","modules":[{"id":"m","type":"T"}]},"owner":"ana","tags":["x"]}`))
	f.Add([]byte(`{"workflow":{"id":"medimg","modules":[]}}`))
	f.Add([]byte(`{"workflow":{"id":"wf","modules":[null],"links":[{"from":"a","to":"b"}]}}`))
	f.Add([]byte(`{"workflow":null}`))
	f.Add([]byte(`{"user":"ana","stars":4}`))
	f.Add([]byte(`{"user":"","stars":99999999999999999999}`))
	f.Add([]byte(`[1,2`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r := newRepo()
		if err := r.Publish(workloads.MedicalImaging(), "juliana", "figure 1", "imaging"); err != nil {
			t.Fatal(err)
		}
		h := NewHandlerWith(r, HandlerOptions{Metrics: obs.NewRegistry()})
		for _, path := range []string{"/v1/workflows", "/v1/workflows/medimg/rating"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 || rec.Code < 200 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			if rec.Code < 300 {
				continue
			}
			var env api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" || env.Message == "" {
				t.Fatalf("POST %s %q: status %d body %q is not the error envelope", path, body, rec.Code, rec.Body)
			}
		}
	})
}
