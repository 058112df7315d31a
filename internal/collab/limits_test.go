package collab

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/collab/api"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/workloads"
)

// padded is v's JSON object with an extra "pad" member of n bytes: still
// a valid body for every route, which ignores unknown members.
func padded(t *testing.T, v any, n int) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b[:len(b)-1], `,"pad":"`+strings.Repeat("a", n)+`"}`...)
}

// TestV1OversizeBodies: a valid JSON body over maxBodyBytes gets 413 in
// the bad_request envelope on every route that decodes one, and changes
// nothing; the same body with a small pad is accepted.
func TestV1OversizeBodies(t *testing.T) {
	for _, tc := range []struct {
		path  string
		body  any
		ok    int
		state func(*Repository, *standing.Manager) any
	}{
		{
			path: "/workflows",
			body: api.PublishWorkflowRequest{Workflow: workloads.Genomics("s1"), Owner: "ana"},
			ok:   http.StatusCreated,
			state: func(r *Repository, _ *standing.Manager) any {
				return r.List()
			},
		},
		{
			path: "/workflows/medimg/rating",
			body: api.RateRequest{User: "ana", Stars: 4},
			ok:   http.StatusOK,
			state: func(r *Repository, _ *standing.Manager) any {
				e, _ := r.Peek("medimg")
				return len(e.Ratings)
			},
		},
		{
			path: "/subscriptions",
			body: api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredGenerated},
			ok:   http.StatusCreated,
			state: func(_ *Repository, m *standing.Manager) any {
				return len(m.List())
			},
		},
	} {
		post := func(srv string, body []byte) *http.Response {
			t.Helper()
			resp, err := http.Post(srv+api.V1Prefix+tc.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}

		srv, repo, mgr := standingServer(t, standing.Options{}, HandlerOptions{})
		before := tc.state(repo, mgr)
		env := decodeEnvelope(t, post(srv.URL, padded(t, tc.body, maxBodyBytes)), http.StatusRequestEntityTooLarge, api.CodeBadRequest)
		if !strings.Contains(env.Message, "exceeds") {
			t.Errorf("POST %s: message %q", tc.path, env.Message)
		}
		if after := tc.state(repo, mgr); !reflect.DeepEqual(after, before) {
			t.Errorf("POST %s: an oversize body changed the state from %v to %v", tc.path, before, after)
		}

		resp := post(srv.URL, padded(t, tc.body, 1<<10))
		resp.Body.Close()
		if resp.StatusCode != tc.ok {
			t.Errorf("POST %s with a small pad: status %d, want %d", tc.path, resp.StatusCode, tc.ok)
		}
	}
}

// TestPollWait: wait_ms is capped before it is scaled to a duration, so a
// value whose product overflows still waits maxPollWait.
func TestPollWait(t *testing.T) {
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, 0},
		{-5, 0},
		{1500, 1500 * time.Millisecond},
		{9_223_372_036_855, maxPollWait}, // ×1e6 ns wraps negative
		{math.MaxInt, maxPollWait},
	} {
		if got := pollWait(tc.ms); got != tc.want {
			t.Errorf("pollWait(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}
