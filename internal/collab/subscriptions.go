package collab

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/collab/api"
	"repro/internal/query/standing"
	"repro/internal/store"
)

// Standing-query subscription routes (subscriptionRoutes): register
// (returns the ID and a snapshot), list, re-snapshot, unregister, and the
// delta stream.
//
// The events endpoint streams Server-Sent Events: each event carries the
// subscription sequence as its SSE id, the event type (snapshot / add /
// remove / gap) as its event name, and the JSON items array as data.
// Reconnecting with Last-Event-ID (or ?from=N) resumes after that
// sequence; when the bounded replay buffer has evicted the missed events
// the server sends an explicit gap event followed by a fresh snapshot, so
// a consumer is never silently stale. Without a cursor the stream opens
// with a snapshot event. ?poll=1 is the long-poll fallback: it waits up to
// ?wait_ms for events after ?from and answers them as a JSON array
// (empty on timeout).

// sseHeartbeat keeps idle SSE connections alive through proxies.
const sseHeartbeat = 15 * time.Second

// maxPollWait caps the long-poll hold so a dead client cannot pin a
// handler goroutine for long.
const maxPollWait = 55 * time.Second

// specFromWire converts the wire registration to a standing spec.
func specFromWire(body api.SubscribeRequest) (standing.Spec, error) {
	spec := standing.Spec{
		Kind:    standing.Kind(body.Kind),
		Root:    body.Root,
		Pattern: store.Triple{S: body.Subject, P: body.Predicate, O: body.Object},
		Query:   body.Query,
		Output:  body.Output,
	}
	if body.Direction != "" {
		dir, err := store.ParseDirection(body.Direction)
		if err != nil {
			return standing.Spec{}, err
		}
		spec.Dir = dir
	}
	return spec, nil
}

// specToWire is the inverse, for listings.
func specToWire(spec standing.Spec) api.SubscribeRequest {
	out := api.SubscribeRequest{
		Kind:      string(spec.Kind),
		Root:      spec.Root,
		Subject:   spec.Pattern.S,
		Predicate: spec.Pattern.P,
		Object:    spec.Pattern.O,
		Query:     spec.Query,
		Output:    spec.Output,
	}
	if spec.Kind == standing.KindClosure {
		out.Direction = spec.Dir.String()
	}
	return out
}

func eventsToWire(evs []standing.Event) []api.SubscriptionEvent {
	out := make([]api.SubscriptionEvent, len(evs))
	for i, ev := range evs {
		out[i] = api.SubscriptionEvent{Seq: ev.Seq, Type: ev.Type, Items: ev.Items}
	}
	return out
}

// subscriptionRoutes are the route table's subscription entries: all
// node-local, so a follower serves them too. Without a manager every
// subscription path answers 503/unavailable, whatever the method.
func subscriptionRoutes(mgr *standing.Manager) []route {
	if mgr == nil {
		off := func(w http.ResponseWriter, req *http.Request) {
			writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
				errors.New("collab: this node does not serve standing queries"))
		}
		return []route{{"", "/v1/subscriptions", nodeWrite, off}, {"", "/v1/subscriptions/", nodeWrite, off}}
	}
	return []route{
		{"GET", "/v1/subscriptions", nodeWrite, func(w http.ResponseWriter, req *http.Request) {
			infos := mgr.List()
			out := make([]api.Subscription, len(infos))
			for i, info := range infos {
				out[i] = api.Subscription{ID: info.ID, Spec: specToWire(info.Spec), Seq: info.Seq, Size: info.Size}
			}
			writeJSON(w, http.StatusOK, out)
		}},
		{"POST", "/v1/subscriptions", nodeWrite, func(w http.ResponseWriter, req *http.Request) {
			var body api.SubscribeRequest
			if !decodeBody(w, req, "subscribe", &body) {
				return
			}
			spec, err := specFromWire(body)
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
				return
			}
			snap, err := mgr.Subscribe(spec)
			if err != nil {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
				return
			}
			writeJSON(w, http.StatusCreated, api.SubscribeResponse{ID: snap.ID, Seq: snap.Seq, Items: snap.Items})
		}},
		{"GET", "/v1/subscriptions/{id}", nodeWrite, func(w http.ResponseWriter, req *http.Request) {
			id := req.PathValue("id")
			snap, ok := mgr.Snapshot(id)
			if !ok {
				writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no subscription %q", id))
				return
			}
			writeJSON(w, http.StatusOK, api.SubscribeResponse{ID: snap.ID, Seq: snap.Seq, Items: snap.Items})
		}},
		{"DELETE", "/v1/subscriptions/{id}", nodeWrite, func(w http.ResponseWriter, req *http.Request) {
			id := req.PathValue("id")
			if !mgr.Unsubscribe(id) {
				writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no subscription %q", id))
				return
			}
			writeJSON(w, http.StatusOK, api.StatusResponse{Status: "ok"})
		}},
		{"GET", "/v1/subscriptions/{id}/events", nodeWrite, func(w http.ResponseWriter, req *http.Request) {
			serveEvents(mgr, w, req, req.PathValue("id"))
		}},
	}
}

// eventCursor resolves the consumer's resume position: the Last-Event-ID
// header (SSE reconnect) wins, then ?from. explicit reports whether the
// consumer named one at all — without a cursor an SSE stream opens with a
// fresh snapshot instead of replaying history.
func eventCursor(req *http.Request) (from uint64, explicit bool, err error) {
	if v := req.Header.Get("Last-Event-ID"); v != "" {
		from, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("collab: bad Last-Event-ID %q", v)
		}
		return from, true, nil
	}
	if v := req.URL.Query().Get("from"); v != "" {
		from, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("collab: bad from %q", v)
		}
		return from, true, nil
	}
	return 0, false, nil
}

// flusherOf finds the http.Flusher behind w, unwrapping middleware
// recorders (the same chain http.ResponseController walks).
func flusherOf(w http.ResponseWriter) http.Flusher {
	for {
		if f, ok := w.(http.Flusher); ok {
			return f
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return nil
		}
		w = u.Unwrap()
	}
}

func serveEvents(mgr *standing.Manager, w http.ResponseWriter, req *http.Request, id string) {
	from, explicit, err := eventCursor(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err)
		return
	}
	if _, ok := mgr.Snapshot(id); !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no subscription %q", id))
		return
	}
	if req.URL.Query().Get("poll") != "" {
		servePoll(mgr, w, req, id, from)
		return
	}
	flusher := flusherOf(w)
	if flusher == nil {
		// No streaming support in the chain: degrade to one long-poll round.
		servePoll(mgr, w, req, id, from)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	cursor := from
	if !explicit {
		// Fresh stream: open with the current result so the consumer needs
		// no separate snapshot fetch.
		snap, ok := mgr.Snapshot(id)
		if !ok {
			return
		}
		writeSSE(w, standing.Event{Seq: snap.Seq, Type: standing.EventSnapshot, Items: snap.Items})
		cursor = snap.Seq
	}
	flusher.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		evs, ok := mgr.EventsSince(id, cursor)
		if !ok {
			return // unsubscribed: close the stream
		}
		for _, ev := range evs {
			writeSSE(w, ev)
			cursor = ev.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		ch, ok := mgr.Changed(id, cursor)
		if !ok {
			return
		}
		if ch == nil {
			continue // events landed between the two calls
		}
		select {
		case <-ch:
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// pollWait converts a client's wait_ms to the long-poll hold, capped at
// maxPollWait. The cap applies to the milliseconds before they are scaled:
// a large ms would overflow time.Duration to a negative wait.
func pollWait(ms int) time.Duration {
	return time.Duration(min(max(ms, 0), int(maxPollWait/time.Millisecond))) * time.Millisecond
}

// servePoll is the long-poll fallback: wait (bounded) for events after
// from, answering a JSON array — empty on timeout.
func servePoll(mgr *standing.Manager, w http.ResponseWriter, req *http.Request, id string, from uint64) {
	wait := 30 * time.Second
	if v := req.URL.Query().Get("wait_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Errorf("collab: bad wait_ms %q", v))
			return
		}
		wait = pollWait(ms)
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		evs, ok := mgr.EventsSince(id, from)
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no subscription %q", id))
			return
		}
		if len(evs) > 0 {
			writeJSON(w, http.StatusOK, eventsToWire(evs))
			return
		}
		ch, ok := mgr.Changed(id, from)
		if !ok {
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("collab: no subscription %q", id))
			return
		}
		if ch == nil {
			continue
		}
		select {
		case <-ch:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, []api.SubscriptionEvent{})
			return
		case <-req.Context().Done():
			return
		}
	}
}

// writeSSE frames one event in SSE wire format. Items are a single-line
// JSON array, so the data field never needs continuation lines.
func writeSSE(w http.ResponseWriter, ev standing.Event) {
	items, _ := json.Marshal(ev.Items)
	if ev.Items == nil {
		items = []byte("[]")
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, items)
}
