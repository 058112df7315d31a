package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/collab/api"
	"repro/internal/obs"
	"repro/internal/store/wal"
)

// EpochFileName is the per-node fencing state file, kept next to the
// store's log in the node's data directory.
const EpochFileName = "replication-epoch.json"

var (
	mPromotions = obs.Default().Counter("prov_failover_promotions_total", "Follower→primary promotions performed by this process.")
	mFencings   = obs.Default().Counter("prov_failover_fences_total", "Times this node fenced itself read-only after observing a higher epoch.")
)

// ErrNotFollower rejects promotion of a node that is not currently a
// follower (already primary, or standalone). Typed as *api.RemoteError
// so the HTTP layer can surface the conflict status without importing
// this package (which would cycle through its tests).
var ErrNotFollower = &api.RemoteError{
	HTTPStatus: http.StatusConflict, Code: api.CodeConflict,
	Message: "replica: promote: node is not a follower",
}

// ErrPromoting rejects a promotion that races an in-flight one.
var ErrPromoting = &api.RemoteError{
	HTTPStatus: http.StatusConflict, Code: api.CodeConflict,
	Message: "replica: promotion already in progress",
}

// epochState is the on-disk shape of EpochFileName.
type epochState struct {
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced"`
}

// Node is a provd's failover coordinator: the fencing epoch, the
// current role (which promotion changes at runtime), and the fenced
// flag. It implements the per-request decisions the HTTP layer consults
// — "what epoch am I", "did this request teach me a higher one", "am I
// still allowed to accept writes" — and the promotion state machine.
//
// Epoch and fenced survive restarts via EpochFileName in the node's
// data directory, so a primary that was fenced while partitioned stays
// fenced when it comes back.
type Node struct {
	dir string

	mu        sync.Mutex
	role      string
	epoch     uint64
	fenced    bool
	follower  *Follower
	promoting bool
}

// NewNode loads (or initializes) the fencing state for a node serving
// role out of dir (empty dir: state is held in memory only). Primaries
// start at epoch ≥ 1 so "no epoch yet" (0) is never a live primary's
// epoch; followers start at whatever they last persisted and adopt the
// primary's epoch from the first response they observe. f is the
// node's follower (nil unless role is follower) — promotion drains and
// stops it.
func NewNode(dir, role string, f *Follower) (*Node, error) {
	n := &Node{dir: dir, role: role, follower: f}
	if dir != "" {
		data, err := os.ReadFile(filepath.Join(dir, EpochFileName))
		switch {
		case err == nil:
			var st epochState
			if err := json.Unmarshal(data, &st); err != nil {
				return nil, fmt.Errorf("replica: parse %s: %w", EpochFileName, err)
			}
			n.epoch, n.fenced = st.Epoch, st.Fenced
		case !os.IsNotExist(err):
			return nil, fmt.Errorf("replica: read %s: %w", EpochFileName, err)
		}
	}
	if role == api.RolePrimary && n.epoch == 0 {
		n.epoch = 1
		if err := n.persist(); err != nil {
			return nil, err
		}
	}
	obs.Default().GaugeFunc("prov_failover_epoch",
		"The node's current fencing epoch.",
		func() float64 { return float64(n.Epoch()) })
	obs.Default().GaugeFunc("prov_failover_fenced",
		"1 when the node fenced itself read-only after observing a higher epoch.",
		func() float64 {
			if n.Fenced() {
				return 1
			}
			return 0
		})
	return n, nil
}

// persist writes the fencing state through wal.WriteFileAtomic, so a
// fence or promotion that returned survives power loss. It takes mu
// itself, so callers must not hold it.
func (n *Node) persist() error {
	if n.dir == "" {
		return nil
	}
	n.mu.Lock()
	st := epochState{Epoch: n.epoch, Fenced: n.fenced}
	n.mu.Unlock()
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(filepath.Join(n.dir, EpochFileName), data); err != nil {
		return fmt.Errorf("replica: persist epoch: %w", err)
	}
	return nil
}

// Role returns the node's current replication role; promotion switches
// a follower to primary at runtime.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the node's fencing epoch: the highest it has persisted,
// adopted from a request, or (on a follower) observed on a primary
// response.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	e, role, f := n.epoch, n.role, n.follower
	n.mu.Unlock()
	if role == api.RoleFollower && f != nil {
		if ce := f.Client().Epoch(); ce > e {
			e = ce
		}
	}
	return e
}

// Fenced reports whether the node demoted itself read-only after
// observing a higher epoch.
func (n *Node) Fenced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fenced
}

// Observe teaches the node an epoch seen on an incoming request (or a
// peer's response). A higher epoch is adopted; an unfenced primary
// additionally fences itself read-only — a newer primary exists, so
// accepting further writes would split-brain the fleet. Returns true
// when this call fenced the node.
func (n *Node) Observe(remote uint64) bool {
	n.mu.Lock()
	if remote <= n.epoch {
		n.mu.Unlock()
		return false
	}
	n.epoch = remote
	fencedNow := false
	if n.role == api.RolePrimary && !n.fenced {
		n.fenced = true
		fencedNow = true
	}
	n.mu.Unlock()
	if fencedNow {
		mFencings.Add(1)
	}
	_ = n.persist()
	return fencedNow
}

// Promote turns a follower into the primary: best-effort drain of the
// upstream log bounded by ctx (an unreachable primary records DrainErr
// instead of stalling cutover), stop the shipper, bump the epoch past
// everything this node has seen, persist, and best-effort fence the old
// primary by showing it the new epoch. The caller (provd) flips its
// serving state off the node's Role/Fenced on return.
func (n *Node) Promote(ctx context.Context) (*api.PromoteResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n.mu.Lock()
	if n.role != api.RoleFollower || n.follower == nil {
		n.mu.Unlock()
		return nil, ErrNotFollower
	}
	if n.promoting {
		n.mu.Unlock()
		return nil, ErrPromoting
	}
	n.promoting = true
	f := n.follower
	n.mu.Unlock()

	pr := &api.PromoteResponse{}
	if err := f.CatchUpContext(ctx); err != nil {
		pr.DrainErr = err.Error()
	}
	f.Stop()

	n.mu.Lock()
	epoch := n.epoch
	if ce := f.Client().Epoch(); ce > epoch {
		epoch = ce
	}
	epoch++
	n.epoch = epoch
	n.role = api.RolePrimary
	n.fenced = false
	n.promoting = false
	n.mu.Unlock()
	if err := n.persist(); err != nil {
		return nil, err
	}
	mPromotions.Add(1)

	pr.Role = api.RolePrimary
	pr.Epoch = epoch
	applied, _ := f.Lag()
	pr.AppliedBytes = applied

	// Show the old primary the new epoch so it fences now rather than on
	// the first post-heal request. Failure is recorded, not fatal: a
	// partitioned old primary fences itself the moment any epoch-stamped
	// request reaches it (provctl fence forces the issue).
	f.Client().SetEpoch(epoch)
	fctx, cancel := context.WithTimeout(ctx, f.opt.RequestTimeout)
	rs, err := f.Client().ReplicationStatusContext(fctx)
	cancel()
	if err != nil {
		pr.FenceErr = err.Error()
	} else {
		pr.OldPrimaryFenced = rs.Fenced
	}
	return pr, nil
}

// Health assembles the node's /v1/health body. maxLag is the
// follower's configured staleness bound in bytes (0: none); ok=false
// means the node should answer 503 (out of a load balancer's rotation):
// a disconnected follower, or one beyond its staleness bound.
func (n *Node) Health(maxLag int64) (h api.HealthResponse, ok bool) {
	n.mu.Lock()
	role, f, fenced := n.role, n.follower, n.fenced
	n.mu.Unlock()
	h = api.HealthResponse{Status: "ok", Role: role, Epoch: n.Epoch(), Fenced: fenced}
	ok = true
	if role == api.RoleFollower && f != nil {
		rh := f.Health()
		rh.MaxLagBytes = maxLag
		h.Replication = &rh
		if rh.State == api.HealthDisconnected {
			h.Status = api.HealthDisconnected
			ok = false
		}
		if maxLag > 0 && rh.LagBytes > maxLag {
			h.Status = api.CodeReplicaTooStale
			ok = false
		}
	}
	return h, ok
}

// Lag returns the follower's total applied bytes and how far behind its
// primary it is (see Follower.Lag); zero for a node with no follower.
func (n *Node) Lag() (applied, behind int64) {
	if n.follower == nil { // set once by NewNode
		return 0, 0
	}
	return n.follower.Lag()
}

// Status reports the node's /v1/replication/status: its follower's
// positions while it follows, else src's as a primary (probing replicas
// through probe, see Source.Status), stamped with the node's epoch and
// fenced flag.
func (n *Node) Status(src *Source, replicas []string, probe func(url string) (*api.ReplicationStatus, error)) api.ReplicationStatus {
	var rs api.ReplicationStatus
	if n.Role() == api.RoleFollower && n.follower != nil {
		rs = n.follower.Status()
	} else {
		rs = src.Status(replicas, probe)
	}
	rs.Epoch, rs.Fenced = n.Epoch(), n.Fenced()
	return rs
}
