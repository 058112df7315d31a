// Package api is the typed wire contract of provd's versioned HTTP
// surface: the v1 route prefix, the shared error envelope every route
// answers failures with, replication positions and headers, and the
// request/response bodies — shared by the server (internal/collab), the
// Go client (used by the replication shipper, provctl and tests), and
// anything else that speaks to a provd.
package api

import (
	"fmt"

	"repro/internal/workflow"
)

// V1Prefix roots every provd route; nothing is served outside it.
const V1Prefix = "/v1"

// Error codes carried in the shared envelope, stable across versions —
// clients branch on Code, not on message text.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeConflict         = "conflict"
	CodeReadOnlyReplica  = "read_only_replica"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
	// CodeStaleEpoch rejects a request carrying a replication epoch lower
	// than the node's own: the sender is acting on a fenced configuration
	// (an old primary, or a follower still bound to one) and must not be
	// served as if it were current.
	CodeStaleEpoch = "stale_epoch"
	// CodeFenced rejects writes on a primary that observed a higher
	// epoch: a newer primary exists, so accepting the write would
	// split-brain the fleet. The node keeps serving reads.
	CodeFenced = "fenced"
	// CodeReplicaTooStale rejects reads on a follower whose replication
	// lag exceeds its configured -max-lag bound: the operator asked for
	// bounded staleness, so beyond the bound a 503 beats a silently
	// arbitrarily stale answer.
	CodeReplicaTooStale = "replica_too_stale"
)

// Replication and staleness headers.
const (
	// HeaderReplicaApplied reports a follower's applied WAL position
	// (total committed bytes across shards) on every read response.
	HeaderReplicaApplied = "X-Replica-Applied"
	// HeaderReplicaLag reports how many committed primary bytes the
	// follower has not applied yet, so clients can enforce their own
	// staleness bounds.
	HeaderReplicaLag = "X-Replica-Lag"
	// HeaderLogCommitted accompanies a /v1/replication/stream chunk with
	// the shard's committed log size at read time: the shipper's target.
	HeaderLogCommitted = "X-Log-Committed"
	// HeaderRequestID stamps every response with the request's trace ID.
	// An incoming value is propagated verbatim (callers and proxies can
	// thread their own IDs); otherwise the server generates one. The same
	// ID appears in the structured request log and the slow-query log.
	HeaderRequestID = "X-Request-ID"
	// HeaderReplicationEpoch carries the fencing epoch. Servers with a
	// replication role stamp it on every response; replication-aware
	// clients (the follower's shipper, provctl promote/fence) send their
	// last-known epoch on requests. A request whose epoch is lower than
	// the node's own is rejected with CodeStaleEpoch; a node that sees a
	// HIGHER epoch than its own — in a request or a probe response —
	// adopts it, and if it was an unfenced primary, fences itself
	// read-only. This is what keeps a partitioned old primary from ever
	// accepting writes once a follower has been promoted past it.
	HeaderReplicationEpoch = "X-Replication-Epoch"
)

// Replication roles reported by /v1/replication/status.
const (
	RoleStandalone = "standalone"
	RolePrimary    = "primary"
	RoleFollower   = "follower"
)

// Error is the envelope every v1 route answers failures with.
type Error struct {
	Message string `json:"error"`
	Code    string `json:"code"`
}

// RemoteError is a decoded non-2xx response from a provd, surfaced by
// the client with the envelope's stable code.
type RemoteError struct {
	HTTPStatus int
	Code       string
	Message    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("api: %s (code=%s, http=%d)", e.Message, e.Code, e.HTTPStatus)
}

// PublishWorkflowRequest is POST /v1/workflows.
type PublishWorkflowRequest struct {
	Workflow    *workflow.Workflow `json:"workflow"`
	Owner       string             `json:"owner"`
	Description string             `json:"description"`
	Tags        []string           `json:"tags"`
}

// PublishWorkflowResponse acknowledges a publish.
type PublishWorkflowResponse struct {
	ID string `json:"id"`
}

// RateRequest is POST /v1/workflows/{id}/rating.
type RateRequest struct {
	User  string `json:"user"`
	Stars int    `json:"stars"`
}

// StatusResponse acknowledges a mutation with no other payload.
type StatusResponse struct {
	Status string `json:"status"`
}

// SearchHit is one scored workflow from GET /v1/workflows?q=.
type SearchHit struct {
	WorkflowID string
	Score      float64
}

// RepoStats mirrors GET /v1/stats.
type RepoStats struct {
	Workflows int
	Runs      int
	Users     int
}

// ShardPosition is one shard's replication state. On a primary, Applied
// equals Committed (it is its own log); on a follower, Committed is the
// last-seen primary position and Lag = Committed − Applied.
type ShardPosition struct {
	Shard      int   `json:"shard"`
	Committed  int64 `json:"committed"`
	Applied    int64 `json:"applied"`
	Lag        int64 `json:"lag"`
	Checkpoint int64 `json:"checkpoint"` // log offset of the last checkpoint, -1 when none
}

// ReplicationStatus is GET /v1/replication/status.
type ReplicationStatus struct {
	Role    string          `json:"role"`
	Sharded bool            `json:"sharded"`
	Shards  []ShardPosition `json:"shards"`
	// Epoch is the node's fencing epoch: monotone across promotions, so
	// any two nodes claiming the primary role are ordered — the lower
	// epoch is the stale one.
	Epoch uint64 `json:"epoch,omitempty"`
	// Fenced reports a primary that observed a higher epoch and demoted
	// itself read-only.
	Fenced bool `json:"fenced,omitempty"`
	// Primary is the upstream URL (followers only).
	Primary string `json:"primary,omitempty"`
	// Replicas are the configured followers with a best-effort probe of
	// each (primaries only).
	Replicas []ReplicaProbe `json:"replicas,omitempty"`
}

// PromoteResponse is POST /v1/replication/promote: the follower drained
// what it could reach, bumped the fencing epoch, and took over as
// primary.
type PromoteResponse struct {
	Role  string `json:"role"`  // the node's new role (primary)
	Epoch uint64 `json:"epoch"` // the new fencing epoch
	// AppliedBytes is the node's total applied log position at promotion
	// — the replication boundary: acked primary writes beyond it were
	// not shipped in time and live only on the fenced primary.
	AppliedBytes int64 `json:"applied_bytes"`
	// DrainErr records a best-effort catch-up drain that could not reach
	// the old primary (the failover case); empty when the drain completed.
	DrainErr string `json:"drain_err,omitempty"`
	// OldPrimaryFenced reports whether the old primary acknowledged the
	// fence; false when it was unreachable (it will fence itself on the
	// first epoch-stamped request it serves after the partition heals —
	// `provctl fence` forces the issue).
	OldPrimaryFenced bool `json:"old_primary_fenced"`
	// FenceErr is the best-effort fence failure, empty on success.
	FenceErr string `json:"fence_err,omitempty"`
}

// Replica health states reported by GET /v1/health on followers:
// connected (last primary contact succeeded), degraded (failing and
// retrying under backoff), disconnected (no successful contact for
// longer than the disconnect threshold).
const (
	HealthConnected    = "connected"
	HealthDegraded     = "degraded"
	HealthDisconnected = "disconnected"
)

// ReplicaHealth is the follower-side replication health block of
// GET /v1/health.
type ReplicaHealth struct {
	State               string  `json:"state"` // Health* constants
	ConsecutiveFailures int     `json:"consecutive_failures"`
	LastError           string  `json:"last_error,omitempty"`
	SecondsSinceContact float64 `json:"seconds_since_contact"`
	AppliedBytes        int64   `json:"applied_bytes"`
	LagBytes            int64   `json:"lag_bytes"`
	// MaxLagBytes echoes the node's -max-lag staleness bound (0: none).
	MaxLagBytes int64 `json:"max_lag_bytes,omitempty"`
}

// HealthResponse is GET /v1/health. The endpoint answers 200 while the
// node should stay in a load balancer's rotation and 503 when it should
// not (a follower past its staleness bound or disconnected from its
// primary); the body says why either way.
type HealthResponse struct {
	Status string `json:"status"` // "ok", or the reason for a 503
	Role   string `json:"role"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Fenced bool   `json:"fenced,omitempty"`
	// Replication is the follower's upstream health (followers only).
	Replication *ReplicaHealth `json:"replication,omitempty"`
}

// ReplicaProbe is one configured follower as seen from the primary.
type ReplicaProbe struct {
	URL    string             `json:"url"`
	Status *ReplicationStatus `json:"status,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// Subscription kinds and event types for the standing-query API. These
// mirror internal/query/standing but are restated here so the wire
// contract stands alone.
const (
	SubscriptionKindTriple      = "triple"
	SubscriptionKindClosure     = "closure"
	SubscriptionKindConjunctive = "conjunctive"

	SubscriptionEventSnapshot = "snapshot"
	SubscriptionEventAdd      = "add"
	SubscriptionEventRemove   = "remove"
	SubscriptionEventGap      = "gap"
)

// SubscribeRequest is POST /v1/subscriptions: register a standing query.
// Kind selects which fields matter — closure: Root + Direction; triple:
// Subject/Predicate/Object (empty = wildcard); conjunctive: Query (a
// Datalog conjunction like "used(E, A), generated(E, B)") + Output
// variables (empty: all, first-occurrence order).
type SubscribeRequest struct {
	Kind      string   `json:"kind"`
	Root      string   `json:"root,omitempty"`
	Direction string   `json:"direction,omitempty"` // "up" (default) or "down"
	Subject   string   `json:"subject,omitempty"`
	Predicate string   `json:"predicate,omitempty"`
	Object    string   `json:"object,omitempty"`
	Query     string   `json:"query,omitempty"`
	Output    []string `json:"output,omitempty"`
}

// SubscribeResponse acknowledges a registration with the subscription's
// initial result snapshot; events with seq > Seq continue from it. The
// same shape answers GET /v1/subscriptions/{id} with the current result.
type SubscribeResponse struct {
	ID    string   `json:"id"`
	Seq   uint64   `json:"seq"`
	Items []string `json:"items"`
}

// Subscription is one entry of GET /v1/subscriptions.
type Subscription struct {
	ID   string           `json:"id"`
	Spec SubscribeRequest `json:"spec"`
	Seq  uint64           `json:"seq"`
	Size int              `json:"size"`
}

// SubscriptionEvent is one element of a subscription's event stream —
// the JSON body of the long-poll fallback and the data/id/event fields of
// the SSE framing. A "gap" event means the replay buffer evicted events
// the consumer missed; the "snapshot" event that follows it (at the same
// sequence) replaces the consumer's state wholesale.
type SubscriptionEvent struct {
	Seq   uint64   `json:"seq"`
	Type  string   `json:"type"`
	Items []string `json:"items,omitempty"`
}

// NodeStatus is GET /v1/status: the fleet-inspection sibling of
// /v1/replication/status — one node's identity and configuration rather
// than its log positions.
type NodeStatus struct {
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Epoch and Fenced mirror the replication fencing state (omitted on
	// standalone nodes, which have no failover coordinator).
	Epoch  uint64 `json:"epoch,omitempty"`
	Fenced bool   `json:"fenced,omitempty"`
	// ReplicaState and ReplicaLagBytes summarize a follower's upstream
	// link (Health* constants; bytes behind the primary's committed
	// position).
	ReplicaState    string `json:"replica_state,omitempty"`
	ReplicaLagBytes int64  `json:"replica_lag_bytes,omitempty"`
	StoreDir        string `json:"store_dir,omitempty"`
	Shards          int    `json:"shards"`
	Durability      string `json:"durability,omitempty"`
	// Checkpoint describes the node's auto-checkpoint policy in the same
	// terms the provd flags configure it ("every 512 runs or 4.0 MiB",
	// "disabled").
	Checkpoint   string `json:"checkpoint,omitempty"`
	ClosureCache bool   `json:"closure_cache"`
	GoVersion    string `json:"go_version"`
	// Version and Revision come from runtime/debug.ReadBuildInfo: the main
	// module version and the vcs.revision the binary was built at, when
	// the build recorded them.
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
}
