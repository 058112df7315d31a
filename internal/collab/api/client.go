package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
	"repro/internal/query/pql"
	"repro/internal/workflow"
)

// DefaultTimeout bounds every non-streaming request made by a Client
// constructed with a nil *http.Client. http.Client.Timeout covers the
// whole exchange including the body read, so it cannot apply to SSE and
// long-poll calls — those go through a separate unbounded client and
// are cancelled via their context instead.
const DefaultTimeout = 10 * time.Second

// Client speaks provd's v1 API: the replication shipper's transport, and
// the typed alternative to hand-rolled query-param requests for provctl
// and tests. Safe for concurrent use.
//
// The client participates in epoch fencing passively: it remembers the
// highest X-Replication-Epoch it has seen on any response and stamps it
// on every subsequent request, so a shipper bound to a fenced primary
// identifies itself as stale and a promoted node's clients carry the
// new epoch to whatever they touch next.
type Client struct {
	base  string
	hc    *http.Client // bounded; all request/response calls
	sc    *http.Client // unbounded; SSE streams and long-polls
	epoch atomic.Uint64
}

// NewClient returns a client for the provd at base (e.g.
// "http://host:8080"). hc nil uses a client with DefaultTimeout for
// regular calls and an untimed client for streams; passing a client
// uses it for both, preserving whatever policy the caller configured.
func NewClient(base string, hc *http.Client) *Client {
	c := &Client{base: strings.TrimRight(base, "/")}
	if hc == nil {
		c.hc = &http.Client{Timeout: DefaultTimeout}
		c.sc = http.DefaultClient
	} else {
		c.hc = hc
		c.sc = hc
	}
	return c
}

// Base returns the server URL the client targets.
func (c *Client) Base() string { return c.base }

// Epoch returns the highest fencing epoch the client has observed (or
// been given via SetEpoch); 0 before any epoch-aware exchange.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// SetEpoch raises the fencing epoch stamped on subsequent requests.
// Lower values are ignored — the epoch is monotone by construction.
func (c *Client) SetEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// do issues one request through hc with the epoch header stamped and
// the response's epoch observed. ctx nil means context.Background().
func (c *Client) do(ctx context.Context, hc *http.Client, method, path string, body io.Reader, header http.Header) (*http.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if e := c.epoch.Load(); e > 0 {
		req.Header.Set(HeaderReplicationEpoch, strconv.FormatUint(e, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if v := resp.Header.Get(HeaderReplicationEpoch); v != "" {
		if e, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			c.SetEpoch(e)
		}
	}
	return resp, nil
}

// decodeError turns a non-2xx response into a *RemoteError, preserving
// the envelope's stable code when the body carries one.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env Error
	if err := json.Unmarshal(body, &env); err != nil || env.Message == "" {
		env.Message = strings.TrimSpace(string(body))
		if env.Message == "" {
			env.Message = resp.Status
		}
	}
	return &RemoteError{HTTPStatus: resp.StatusCode, Code: env.Code, Message: env.Message}
}

func (c *Client) getJSONContext(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, c.hc, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) getJSON(path string, out any) error {
	return c.getJSONContext(context.Background(), path, out)
}

// bodyBufs holds the buffers getBody reads bodies into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const (
	// maxPooledBody bounds the buffers bodyBufs keeps, so that one huge
	// answer does not stay pinned in memory.
	maxPooledBody = 64 << 10
	// maxPresizedBody bounds the Content-Length getBody allocates for up
	// front; a body claiming more is read as it arrives.
	maxPresizedBody = 64 << 20
)

// getBody GETs path and returns the body of a 2xx answer as one string,
// read through a pooled buffer in one piece when the response carries its
// Content-Length.
func (c *Client) getBody(path string) (string, error) {
	resp, err := c.do(context.Background(), c.hc, http.MethodGet, path, nil, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", decodeError(resp)
	}
	n := resp.ContentLength
	if n < 0 || n > maxPresizedBody {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		return string(data), nil
	}
	bp := bodyBufs.Get().(*[]byte)
	buf := slices.Grow((*bp)[:0], int(n))[:n]
	var body string
	if _, err = io.ReadFull(resp.Body, buf); err == nil {
		body = string(buf)
	}
	if cap(buf) <= maxPooledBody {
		*bp = buf
		bodyBufs.Put(bp)
	}
	return body, err
}

func (c *Client) postJSONContext(ctx context.Context, path string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	resp, err := c.do(ctx, c.hc, http.MethodPost, path, bytes.NewReader(data), hdr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) postJSON(path string, in, out any) error {
	return c.postJSONContext(context.Background(), path, in, out)
}

func (c *Client) deleteJSON(path string, out any) error {
	resp, err := c.do(context.Background(), c.hc, http.MethodDelete, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Workflows lists published workflow IDs.
func (c *Client) Workflows() ([]string, error) {
	var ids []string
	err := c.getJSON(V1Prefix+"/workflows", &ids)
	return ids, err
}

// Search ranks published workflows against a free-text query.
func (c *Client) Search(q string) ([]SearchHit, error) {
	var hits []SearchHit
	err := c.getJSON(V1Prefix+"/workflows?q="+url.QueryEscape(q), &hits)
	return hits, err
}

// PublishWorkflow shares a workflow and returns its ID.
func (c *Client) PublishWorkflow(wf *workflow.Workflow, owner, description string, tags ...string) (string, error) {
	var resp PublishWorkflowResponse
	err := c.postJSON(V1Prefix+"/workflows", PublishWorkflowRequest{
		Workflow: wf, Owner: owner, Description: description, Tags: tags,
	}, &resp)
	return resp.ID, err
}

// Rate records a 1-5 star rating by a user.
func (c *Client) Rate(workflowID, user string, stars int) error {
	return c.postJSON(V1Prefix+"/workflows/"+url.PathEscape(workflowID)+"/rating",
		RateRequest{User: user, Stars: stars}, nil)
}

// RunsOf lists run IDs published for a workflow.
func (c *Client) RunsOf(workflowID string) ([]string, error) {
	var ids []string
	err := c.getJSON(V1Prefix+"/workflows/"+url.PathEscape(workflowID)+"/runs", &ids)
	return ids, err
}

// RunLog fetches a run's full provenance log.
func (c *Client) RunLog(runID string) (*provenance.RunLog, error) {
	var l provenance.RunLog
	if err := c.getJSON(V1Prefix+"/runs/"+url.PathEscape(runID), &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// Lineage returns the upstream closure of an entity. The returned IDs
// share one backing string, the response body: holding any of them holds
// the whole body.
func (c *Client) Lineage(id string) ([]string, error) {
	body, err := c.getBody(V1Prefix + "/lineage?id=" + url.QueryEscape(id))
	if err != nil {
		return nil, err
	}
	return parseIDList(body)
}

// Dependents returns the downstream closure of an entity. The returned IDs
// share one backing string, as Lineage's do.
func (c *Client) Dependents(id string) ([]string, error) {
	body, err := c.getBody(V1Prefix + "/dependents?id=" + url.QueryEscape(id))
	if err != nil {
		return nil, err
	}
	return parseIDList(body)
}

// Expand returns the one-hop frontier of a batch of entities; dir is
// "up" or "down". The returned keys and IDs share one backing string, as
// Lineage's do.
func (c *Client) Expand(ids []string, dir string) (map[string][]string, error) {
	body, err := c.getBody(V1Prefix + "/expand?ids=" + url.QueryEscape(strings.Join(ids, ",")) + "&dir=" + url.QueryEscape(dir))
	if err != nil {
		return nil, err
	}
	return parseIDMap(body)
}

// Query runs a PQL query against the server's provenance store.
func (c *Client) Query(q string) (*pql.Result, error) {
	var res pql.Result
	if err := c.getJSON(V1Prefix+"/query?q="+url.QueryEscape(q), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Stats summarizes repository contents.
func (c *Client) Stats() (RepoStats, error) {
	var st RepoStats
	err := c.getJSON(V1Prefix+"/stats", &st)
	return st, err
}

// NodeStatus reports the server's identity and configuration.
func (c *Client) NodeStatus() (*NodeStatus, error) {
	var ns NodeStatus
	if err := c.getJSON(V1Prefix+"/status", &ns); err != nil {
		return nil, err
	}
	return &ns, nil
}

// Health reports the node's serving health. Both the healthy 200 and
// the out-of-rotation 503 carry a HealthResponse body, so a decodable
// 503 returns the body with ok=false rather than an error — the body
// says why the node took itself out.
func (c *Client) Health(ctx context.Context) (*HealthResponse, bool, error) {
	resp, err := c.do(ctx, c.hc, http.MethodGet, V1Prefix+"/health", nil, nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	ok := resp.StatusCode/100 == 2
	if !ok && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, false, decodeError(resp)
	}
	var h HealthResponse
	if derr := json.NewDecoder(resp.Body).Decode(&h); derr != nil {
		if !ok {
			return nil, false, &RemoteError{HTTPStatus: resp.StatusCode, Code: CodeUnavailable, Message: resp.Status}
		}
		return nil, false, derr
	}
	return &h, ok, nil
}

// MetricsText fetches the server's metrics in Prometheus text exposition
// format, verbatim — provctl metrics renders and diffs it client-side.
func (c *Client) MetricsText() (string, error) {
	resp, err := c.do(context.Background(), c.hc, http.MethodGet, V1Prefix+"/metrics", nil, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Subscribe registers a standing query and returns its ID plus the
// initial result snapshot.
func (c *Client) Subscribe(req SubscribeRequest) (*SubscribeResponse, error) {
	var resp SubscribeResponse
	if err := c.postJSON(V1Prefix+"/subscriptions", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Subscriptions lists the server's registered standing queries.
func (c *Client) Subscriptions() ([]Subscription, error) {
	var subs []Subscription
	err := c.getJSON(V1Prefix+"/subscriptions", &subs)
	return subs, err
}

// Subscription fetches a subscription's full current result — the
// re-snapshot a consumer takes after a gap event.
func (c *Client) Subscription(id string) (*SubscribeResponse, error) {
	var resp SubscribeResponse
	if err := c.getJSON(V1Prefix+"/subscriptions/"+url.PathEscape(id), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Unsubscribe deletes a standing query.
func (c *Client) Unsubscribe(id string) error {
	return c.deleteJSON(V1Prefix+"/subscriptions/"+url.PathEscape(id), nil)
}

// PollSubscriptionEvents long-polls for events after sequence from,
// waiting server-side up to wait (0: server default) before answering an
// empty slice. The long-poll fallback for clients that cannot hold an SSE
// stream. Goes through the untimed client: the server may legitimately
// hold the request far past DefaultTimeout.
func (c *Client) PollSubscriptionEvents(id string, from uint64, wait time.Duration) ([]SubscriptionEvent, error) {
	u := fmt.Sprintf("%s/subscriptions/%s/events?poll=1&from=%d", V1Prefix, url.PathEscape(id), from)
	if wait > 0 {
		u += fmt.Sprintf("&wait_ms=%d", wait.Milliseconds())
	}
	resp, err := c.do(context.Background(), c.sc, http.MethodGet, u, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp)
	}
	var evs []SubscriptionEvent
	err = json.NewDecoder(resp.Body).Decode(&evs)
	return evs, err
}

// WatchSubscription consumes a subscription's SSE stream, invoking fn for
// every event until ctx is done, the server closes the stream (e.g. the
// subscription was deleted), or fn returns an error. from > 0 resumes
// after that sequence via the Last-Event-ID header; from == 0 asks the
// server to open with a fresh snapshot event. Returns the last sequence
// consumed, so a caller can reconnect without losing events.
func (c *Client) WatchSubscription(ctx context.Context, id string, from uint64, fn func(SubscriptionEvent) error) (uint64, error) {
	hdr := http.Header{"Accept": []string{"text/event-stream"}}
	if from > 0 {
		hdr.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	}
	resp, err := c.do(ctx, c.sc, http.MethodGet,
		V1Prefix+"/subscriptions/"+url.PathEscape(id)+"/events", nil, hdr)
	if err != nil {
		return from, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return from, decodeError(resp)
	}
	last := from
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var ev SubscriptionEvent
	flush := func() error {
		if ev.Type == "" {
			ev = SubscriptionEvent{}
			return nil
		}
		e := ev
		ev = SubscriptionEvent{}
		if err := fn(e); err != nil {
			return err
		}
		last = e.Seq
		return nil
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return last, err
			}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "id:"):
			ev.Seq, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "event:"):
			ev.Type = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			_ = json.Unmarshal([]byte(strings.TrimSpace(line[5:])), &ev.Items)
		}
	}
	if err := flush(); err != nil {
		return last, err
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return last, err
	}
	return last, nil
}

// ReplicationStatus reports the server's role and per-shard positions.
func (c *Client) ReplicationStatus() (*ReplicationStatus, error) {
	return c.ReplicationStatusContext(context.Background())
}

// ReplicationStatusContext is ReplicationStatus bounded by ctx.
func (c *Client) ReplicationStatusContext(ctx context.Context) (*ReplicationStatus, error) {
	var rs ReplicationStatus
	if err := c.getJSONContext(ctx, V1Prefix+"/replication/status", &rs); err != nil {
		return nil, err
	}
	return &rs, nil
}

// Promote asks a follower to take over as primary: drain what it can
// reach of the upstream log, bump the fencing epoch, drop read-only,
// and best-effort fence the old primary.
func (c *Client) Promote(ctx context.Context) (*PromoteResponse, error) {
	var pr PromoteResponse
	if err := c.postJSONContext(ctx, V1Prefix+"/replication/promote", struct{}{}, &pr); err != nil {
		return nil, err
	}
	c.SetEpoch(pr.Epoch)
	return &pr, nil
}

// Fence tells the node about epoch (typically a promoted node's) by
// stamping it on a status request: an unfenced primary at a lower epoch
// fences itself read-only on observing it. The returned status reflects
// the node's state after the exchange.
func (c *Client) Fence(ctx context.Context, epoch uint64) (*ReplicationStatus, error) {
	c.SetEpoch(epoch)
	return c.ReplicationStatusContext(ctx)
}

// StreamLog fetches a record-aligned chunk of a primary shard's
// committed log starting at from (at most maxBytes long; 0 for the
// server default), plus the shard's committed size at read time. An
// empty chunk with committed == from means the follower is caught up.
func (c *Client) StreamLog(shard int, from int64, maxBytes int) ([]byte, int64, error) {
	return c.StreamLogContext(context.Background(), shard, from, maxBytes)
}

// StreamLogContext is StreamLog bounded by ctx.
func (c *Client) StreamLogContext(ctx context.Context, shard int, from int64, maxBytes int) ([]byte, int64, error) {
	u := fmt.Sprintf("%s/replication/stream?shard=%d&from=%d&max=%d", V1Prefix, shard, from, maxBytes)
	resp, err := c.do(ctx, c.hc, http.MethodGet, u, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, 0, decodeError(resp)
	}
	committed, err := strconv.ParseInt(resp.Header.Get(HeaderLogCommitted), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("api: stream response missing %s header: %w", HeaderLogCommitted, err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return data, committed, nil
}

// ShardCheckpointContext fetches the raw checkpoint snapshot of a primary
// shard, bounded by ctx; ok=false when the shard has none yet. New followers
// install it before opening their store so only the post-checkpoint log
// suffix replays.
func (c *Client) ShardCheckpointContext(ctx context.Context, shard int) ([]byte, bool, error) {
	u := fmt.Sprintf("%s/replication/checkpoint?shard=%d", V1Prefix, shard)
	resp, err := c.do(ctx, c.hc, http.MethodGet, u, nil, nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	}
	if resp.StatusCode/100 != 2 {
		return nil, false, decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}
