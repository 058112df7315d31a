package collab

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/collab/api"
	"repro/internal/provenance"
	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/workloads"
)

// standingServer serves a repository whose store stack is tapped by a
// standing-query manager, the provd primary wiring.
func standingServer(t *testing.T, opt standing.Options, hopts HandlerOptions) (*httptest.Server, *Repository, *standing.Manager) {
	t.Helper()
	st := store.NewMemStore()
	t.Cleanup(func() { st.Close() })
	mgr := standing.NewManager(st, opt)
	r := NewRepository(standing.NewTap(st, mgr))
	wf := workloads.MedicalImaging()
	if err := r.Publish(wf, "juliana", "figure 1", "imaging"); err != nil {
		t.Fatal(err)
	}
	hopts.Standing = mgr
	srv := httptest.NewServer(NewHandlerWith(r, hopts))
	t.Cleanup(srv.Close)
	return srv, r, mgr
}

// watchRun is a self-contained run log: exec-N generates art-N.
func watchRun(i int) *provenance.RunLog {
	runID := fmt.Sprintf("wrun-%03d", i)
	exec := fmt.Sprintf("wexec-%03d", i)
	art := fmt.Sprintf("wart-%03d", i)
	return &provenance.RunLog{
		Run:        provenance.Run{ID: runID, WorkflowID: "medimg", Status: provenance.StatusOK},
		Executions: []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}},
		Artifacts:  []*provenance.Artifact{{ID: art, RunID: runID, Type: "blob"}},
		Events: []provenance.Event{
			{Seq: 1, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: art},
		},
	}
}

func TestV1SubscriptionsLifecycle(t *testing.T) {
	srv, repo, _ := standingServer(t, standing.Options{}, HandlerOptions{})
	c := api.NewClient(srv.URL, nil)

	sub, err := c.Subscribe(api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredGenerated})
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || len(sub.Items) != 0 {
		t.Fatalf("Subscribe = %+v", sub)
	}

	subs, err := c.Subscriptions()
	if err != nil || len(subs) != 1 || subs[0].ID != sub.ID {
		t.Fatalf("Subscriptions = %+v, %v", subs, err)
	}
	if subs[0].Spec.Kind != api.SubscriptionKindTriple || subs[0].Spec.Predicate != store.PredGenerated {
		t.Fatalf("listed spec = %+v", subs[0].Spec)
	}

	// A publish through the repository folds into the subscription.
	if err := repo.PublishRun("medimg", "juliana", watchRun(1)); err != nil {
		t.Fatal(err)
	}
	evs, err := c.PollSubscriptionEvents(sub.ID, sub.Seq, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Type != api.SubscriptionEventAdd ||
		!reflect.DeepEqual(evs[0].Items, []string{"wexec-001 " + store.PredGenerated + " wart-001"}) {
		t.Fatalf("events = %+v", evs)
	}

	// The re-snapshot endpoint reflects the current result and sequence.
	snap, err := c.Subscription(sub.ID)
	if err != nil || snap.Seq != evs[0].Seq || len(snap.Items) != 1 {
		t.Fatalf("Subscription = %+v, %v", snap, err)
	}

	if err := c.Unsubscribe(sub.ID); err != nil {
		t.Fatal(err)
	}
	var remote *api.RemoteError
	if _, err := c.Subscription(sub.ID); !errors.As(err, &remote) || remote.Code != api.CodeNotFound {
		t.Fatalf("post-delete fetch = %v", err)
	}
	if _, err := c.PollSubscriptionEvents(sub.ID, 0, 0); !errors.As(err, &remote) || remote.Code != api.CodeNotFound {
		t.Fatalf("post-delete events = %v", err)
	}
}

func TestV1SubscriptionsValidationAndMethods(t *testing.T) {
	srv, _, _ := standingServer(t, standing.Options{}, HandlerOptions{})
	c := api.NewClient(srv.URL, nil)

	// Invalid specs answer the shared envelope.
	var remote *api.RemoteError
	for _, req := range []api.SubscribeRequest{
		{Kind: "nope"},
		{Kind: api.SubscriptionKindClosure}, // missing root
		{Kind: api.SubscriptionKindClosure, Root: "x", Direction: "ne"}, // bad direction
		{Kind: api.SubscriptionKindConjunctive, Query: "mystery(X)"},    // unknown predicate
	} {
		if _, err := c.Subscribe(req); !errors.As(err, &remote) || remote.Code != api.CodeBadRequest {
			t.Errorf("Subscribe(%+v) = %v, want bad_request envelope", req, err)
		}
	}

	// Method checks.
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodDelete, "/v1/subscriptions", "GET, POST"},
		{http.MethodPost, "/v1/subscriptions/sub-000001", "GET, DELETE"},
		{http.MethodPost, "/v1/subscriptions/sub-000001/events", "GET"},
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

// A node without a standing manager answers the subscription routes
// unavailable — not a panic, not a 404.
func TestV1SubscriptionsUnavailable(t *testing.T) {
	srv, _ := seededServer(t, HandlerOptions{})
	resp, err := http.Post(srv.URL+"/v1/subscriptions", "application/json", strings.NewReader(`{"kind":"triple"}`))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusServiceUnavailable, api.CodeUnavailable)
}

// Followers must accept subscription registrations and deletions —
// node-local serving state — while still bouncing store writes.
func TestV1ReadOnlyFollowerAllowsSubscriptions(t *testing.T) {
	fo := &stubFailover{role: api.RoleFollower, epoch: 1, healthOK: true, applied: 1}
	srv, _, _ := standingServer(t, standing.Options{}, HandlerOptions{Failover: fo})
	c := api.NewClient(srv.URL, nil)

	sub, err := c.Subscribe(api.SubscribeRequest{Kind: api.SubscriptionKindTriple})
	if err != nil {
		t.Fatalf("follower Subscribe: %v", err)
	}
	if err := c.Unsubscribe(sub.ID); err != nil {
		t.Fatalf("follower Unsubscribe: %v", err)
	}

	// Store writes still bounce.
	resp, err := http.Post(srv.URL+"/v1/workflows", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	decodeEnvelope(t, resp, http.StatusForbidden, api.CodeReadOnlyReplica)
}

// TestV1SubscriptionSSEResume pins the stream protocol: a fresh stream
// opens with a snapshot event, deltas arrive live, and a reconnect with
// Last-Event-ID resumes exactly after the last consumed sequence — or,
// once the replay ring evicted the gap, yields gap + re-snapshot.
func TestV1SubscriptionSSEResume(t *testing.T) {
	srv, repo, _ := standingServer(t, standing.Options{ReplayRing: 4}, HandlerOptions{})
	c := api.NewClient(srv.URL, nil)

	sub, err := c.Subscribe(api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredGenerated})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh stream (no cursor): first event is a snapshot at the current
	// sequence, then each publish arrives as one add.
	ctx, cancel := context.WithCancel(context.Background())
	type got struct {
		evs  []api.SubscriptionEvent
		last uint64
	}
	stream := make(chan got, 1)
	go func() {
		var g got
		g.last, _ = c.WatchSubscription(ctx, sub.ID, 0, func(ev api.SubscriptionEvent) error {
			g.evs = append(g.evs, ev)
			if len(g.evs) == 2 { // snapshot + first add: hang up
				cancel()
			}
			return nil
		})
		stream <- g
	}()
	time.Sleep(50 * time.Millisecond) // let the stream attach
	if err := repo.PublishRun("medimg", "juliana", watchRun(1)); err != nil {
		t.Fatal(err)
	}
	var g got
	select {
	case g = <-stream:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream delivered nothing")
	}
	cancel()
	if len(g.evs) != 2 || g.evs[0].Type != api.SubscriptionEventSnapshot || g.evs[1].Type != api.SubscriptionEventAdd {
		t.Fatalf("stream events = %+v, want [snapshot add]", g.evs)
	}
	if g.evs[1].Seq != g.last || g.last == 0 {
		t.Fatalf("last = %d, events = %+v", g.last, g.evs)
	}

	// Publish one more run, then resume from the last consumed sequence:
	// exactly the missed add arrives, no duplicates, no snapshot.
	if err := repo.PublishRun("medimg", "juliana", watchRun(2)); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var resumed []api.SubscriptionEvent
	_, err = c.WatchSubscription(ctx2, sub.ID, g.last, func(ev api.SubscriptionEvent) error {
		resumed = append(resumed, ev)
		return errStopWatch
	})
	if !errors.Is(err, errStopWatch) {
		t.Fatalf("resume watch: %v", err)
	}
	if len(resumed) != 1 || resumed[0].Type != api.SubscriptionEventAdd ||
		!reflect.DeepEqual(resumed[0].Items, []string{"wexec-002 " + store.PredGenerated + " wart-002"}) {
		t.Fatalf("resumed events = %+v", resumed)
	}

	// Overrun the 4-event replay ring, then resume from the stale cursor:
	// the server answers an explicit gap followed by a fresh snapshot.
	for i := 3; i <= 9; i++ {
		if err := repo.PublishRun("medimg", "juliana", watchRun(i)); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := c.PollSubscriptionEvents(sub.ID, g.last, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Type != api.SubscriptionEventGap || evs[1].Type != api.SubscriptionEventSnapshot {
		t.Fatalf("stale resume = %+v, want [gap snapshot]", evs)
	}
	if len(evs[1].Items) != 9 { // wart-001..009 generated triples
		t.Fatalf("re-snapshot items = %v", evs[1].Items)
	}
	// Resuming after the snapshot's sequence is lossless: an immediate
	// poll has nothing more.
	evs, err = c.PollSubscriptionEvents(sub.ID, evs[1].Seq, 10*time.Millisecond)
	if err != nil || len(evs) != 0 {
		t.Fatalf("post-gap poll = %+v, %v", evs, err)
	}
}

var errStopWatch = errors.New("stop watch")

// TestV1SubscriptionSSEResumeAcrossRestart kills the consumer's live SSE
// connection the way a provd restart does (every established connection
// drops), publishes while the consumer is away, and resumes with the
// cursor WatchSubscription returned: the missed deltas arrive exactly
// once, and a long enough outage (replay ring overrun) yields the
// explicit gap + re-snapshot instead of silent loss. This is the
// contract `provctl watch`'s reconnect loop is built on.
func TestV1SubscriptionSSEResumeAcrossRestart(t *testing.T) {
	srv, repo, _ := standingServer(t, standing.Options{ReplayRing: 4}, HandlerOptions{})
	c := api.NewClient(srv.URL, nil)

	sub, err := c.Subscribe(api.SubscribeRequest{Kind: api.SubscriptionKindTriple, Predicate: store.PredGenerated})
	if err != nil {
		t.Fatal(err)
	}

	// Attach a live stream and feed it one delta.
	got := make(chan struct {
		last uint64
		err  error
	}, 1)
	consumed := make(chan api.SubscriptionEvent, 16)
	go func() {
		last, werr := c.WatchSubscription(context.Background(), sub.ID, 0, func(ev api.SubscriptionEvent) error {
			consumed <- ev
			return nil
		})
		got <- struct {
			last uint64
			err  error
		}{last, werr}
	}()
	waitEvent := func(want string) api.SubscriptionEvent {
		t.Helper()
		select {
		case ev := <-consumed:
			if ev.Type != want {
				t.Fatalf("stream event = %+v, want type %q", ev, want)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s event arrived", want)
			return api.SubscriptionEvent{}
		}
	}
	waitEvent(api.SubscriptionEventSnapshot)
	if err := repo.PublishRun("medimg", "juliana", watchRun(1)); err != nil {
		t.Fatal(err)
	}
	waitEvent(api.SubscriptionEventAdd)

	// "Restart": the server tears down every established connection. The
	// watcher must come back with an error and the last sequence it
	// actually delivered — the resume cursor.
	srv.CloseClientConnections()
	var g struct {
		last uint64
		err  error
	}
	select {
	case g = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not return after the connection dropped")
	}
	if g.err == nil {
		t.Fatal("watch returned nil error after a dropped connection")
	}
	var remote *api.RemoteError
	if errors.As(g.err, &remote) {
		t.Fatalf("dropped connection surfaced as a remote error: %v", g.err)
	}
	if g.last == 0 {
		t.Fatal("watch lost its cursor across the drop")
	}

	// One run published while the consumer was away: resuming after the
	// returned cursor delivers exactly that delta — no snapshot, no dup.
	if err := repo.PublishRun("medimg", "juliana", watchRun(2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var resumed []api.SubscriptionEvent
	_, err = c.WatchSubscription(ctx, sub.ID, g.last, func(ev api.SubscriptionEvent) error {
		resumed = append(resumed, ev)
		return errStopWatch
	})
	if !errors.Is(err, errStopWatch) {
		t.Fatalf("resume watch: %v", err)
	}
	if len(resumed) != 1 || resumed[0].Type != api.SubscriptionEventAdd ||
		!reflect.DeepEqual(resumed[0].Items, []string{"wexec-002 " + store.PredGenerated + " wart-002"}) {
		t.Fatalf("resumed events = %+v", resumed)
	}
	cursor := resumed[0].Seq

	// A longer outage that overruns the 4-event replay ring: the resumed
	// stream opens with the explicit gap, then a full re-snapshot, and
	// resuming after the snapshot's sequence is lossless.
	srv.CloseClientConnections()
	for i := 3; i <= 9; i++ {
		if err := repo.PublishRun("medimg", "juliana", watchRun(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var after []api.SubscriptionEvent
	_, err = c.WatchSubscription(ctx2, sub.ID, cursor, func(ev api.SubscriptionEvent) error {
		after = append(after, ev)
		if len(after) == 2 {
			return errStopWatch
		}
		return nil
	})
	if !errors.Is(err, errStopWatch) {
		t.Fatalf("gap resume watch: %v", err)
	}
	if after[0].Type != api.SubscriptionEventGap || after[1].Type != api.SubscriptionEventSnapshot {
		t.Fatalf("gap resume = %+v, want [gap snapshot]", after)
	}
	if len(after[1].Items) != 9 {
		t.Fatalf("re-snapshot items = %v", after[1].Items)
	}
	evs, err := c.PollSubscriptionEvents(sub.ID, after[1].Seq, 10*time.Millisecond)
	if err != nil || len(evs) != 0 {
		t.Fatalf("post-gap poll = %+v, %v", evs, err)
	}
}
