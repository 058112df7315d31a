package collab

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"repro/internal/collab/api"
	"repro/internal/query/standing"
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
