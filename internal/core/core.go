// Package core is the library facade: a provenance-enabled workflow system
// assembled from the substrates — execution engine, capture, storage, and
// the query engines — with the high-level operations the paper motivates:
// run with provenance, trace lineage, invalidate results, verify
// reproducibility, and export to the Open Provenance Model.
//
// Typical use:
//
//	sys := core.NewSystem(core.Options{Agent: "juliana"})
//	workloads.RegisterAll(sys.Registry)
//	res, log, err := sys.Run(ctx, wf, nil)
//	lineage, err := sys.Lineage(res.Artifacts["render.image"])
//	table, err := sys.Query("SELECT module FROM executions WHERE status = 'ok'")
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/collab/api"
	"repro/internal/engine"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/pql"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
	"repro/internal/workflow"
)

// Options configures a System, and the Node OpenNode assembles.
type Options struct {
	// Store persists run logs; nil means a fresh in-memory store (sharded
	// across Shards partitions when Shards > 1).
	Store store.Store
	// Shards partitions a nil-Store system across this many in-memory
	// shards behind internal/store/shardedstore: each run is placed whole on
	// the shard holding most of its inputs' generators, ingests on different
	// shards proceed under per-shard locking, and
	// closures run pushed down into the shards. 0 or 1 keeps a single
	// unsharded store. With StoreDir, OpenPersistentStore and OpenNode
	// assemble the shards file-backed under it instead (provctl's and
	// provd's -shards flags).
	Shards int
	// Workers bounds parallel module executions (0: GOMAXPROCS).
	Workers int
	// EnableCache memoizes module executions across runs.
	EnableCache bool
	// EnableClosureCache wraps the store in an incrementally maintained
	// closure cache (internal/store/closurecache): lineage, dependents, PQL
	// and pushed-down Datalog closures memoize per (root, direction), and
	// each Run's ingest patches the affected cached closures in place.
	// NewSystem wraps a caller-assembled Store too, so a stack that
	// already carries its cache comes with this off.
	EnableClosureCache bool
	// StoreDir roots a persistent file-backed store; used by
	// OpenPersistentStore / NewPersistentSystem, which assemble the
	// FileStore or sharded router (plus persistent closure cache) there.
	StoreDir string
	// Durability selects what an accepted persistent ingest guarantees:
	// DurabilityNone (default) or DurabilityGroup (write-ahead group
	// commit — concurrent appends share one fsync per batch; see
	// internal/store/wal).
	Durability store.Durability
	// CheckpointEvery, when positive, snapshots the persistent store's
	// folded state — and the closure cache's entries, when enabled —
	// every N accepted ingests, so a reopen replays only the log suffix
	// past the last snapshot and serves warm closures immediately. It is
	// the one automatic trigger; its counter lives in the process, so it
	// suits a daemon (provd -checkpoint-every), and System.Checkpoint and
	// `provctl checkpoint` are the explicit forms.
	CheckpointEvery int
	// Role is the node's replication role for OpenNode (provd's -role):
	// api.RoleStandalone (also ""), api.RolePrimary — ship the store's
	// log to followers — or api.RoleFollower, a read replica of Primary.
	Role string
	// Primary, for a follower, is the base URL of the provd whose log it
	// replicates (see OpenFollowerStore and internal/store/replica).
	Primary string
	// ReplicaPoll is the follower's tail interval (0: replica default).
	ReplicaPoll time.Duration
	// MaxLagBytes, on a follower, answers data reads 503
	// replica_too_stale while replication lag exceeds it (0: unbounded).
	MaxLagBytes int64
	// Replicas, on a primary, lists the follower URLs its
	// /v1/replication/status probes.
	Replicas []string
	// TraceRounds, when set on a sharded store, receives the
	// round trace of every pushdown Closure the router executes (rounds,
	// per-round frontier probe counts, cross-shard crossings) — the
	// observability hook behind provctl's and provd's -trace-rounds
	// flags. Cache hits and unsharded stores execute no rounds and emit
	// nothing.
	TraceRounds func(shardedstore.ClosureTrace)
	// Agent names the user; Environment is recorded on every run.
	Agent       string
	Environment map[string]string
	// Faults injects per-module failures (testing/debugging).
	Faults map[string]string
}

// ValidatePersistence rejects option combinations that would silently
// drop a requested durability guarantee: Durability or CheckpointEvery
// without a store to persist (no StoreDir and no caller-assembled Store)
// would configure an in-memory system that persists nothing. It also
// rejects a shard count the router cannot serve, before anything — the
// in-memory router included — is built with it, and replication options
// the Role would ignore. Both CLIs and OpenNode call this;
// NewSystem does not: the zero Options describe the in-memory system.
func (o Options) ValidatePersistence() error {
	if err := shardedstore.CheckShards(o.Shards); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	follower := o.Role == api.RoleFollower
	switch {
	case o.Role != "" && o.Role != api.RoleStandalone && o.Role != api.RolePrimary && !follower:
		return fmt.Errorf("core: unknown role %q (want standalone, primary or follower)", o.Role)
	case follower && (o.StoreDir == "" || o.Primary == ""):
		return fmt.Errorf("core: -role follower requires -store DIR (the replica's local log) and -primary URL")
	case follower && o.Shards > 1:
		return fmt.Errorf("core: a follower inherits its shard count from the primary; drop -shards")
	case !follower && (o.Primary != "" || o.ReplicaPoll != 0 || o.MaxLagBytes != 0):
		return fmt.Errorf("core: -primary, -replica-poll and -max-lag configure a follower; add -role follower or drop them")
	case o.Role == api.RolePrimary && o.StoreDir == "":
		return fmt.Errorf("core: -role primary requires -store DIR: replication ships a durable log")
	case o.Role != api.RolePrimary && len(o.Replicas) > 0:
		return fmt.Errorf("core: -replicas lists a primary's followers; add -role primary or drop it")
	}
	if o.StoreDir != "" || o.Store != nil {
		return nil
	}
	if o.Durability != store.DurabilityNone {
		return fmt.Errorf("core: durability %s requires a store directory (-store DIR): an in-memory store persists nothing", o.Durability)
	}
	if o.CheckpointEvery > 0 {
		return fmt.Errorf("core: -checkpoint-every requires a store directory (-store DIR): an in-memory store has nothing to snapshot")
	}
	return nil
}

// System is a provenance-enabled workflow system.
type System struct {
	Registry  *engine.Registry
	Collector *provenance.Collector
	Store     store.Store
	Cache     *engine.Cache

	engine    *engine.Engine
	workflows map[string]*workflow.Workflow // run ID -> executed workflow
}

// NewSystem assembles a system.
func NewSystem(opt Options) *System {
	s := &System{
		Registry:  engine.NewRegistry(),
		Collector: provenance.NewCollector(),
		Store:     opt.Store,
		workflows: map[string]*workflow.Workflow{},
	}
	if s.Store == nil {
		s.Store = memStore(opt)
	}
	if opt.EnableClosureCache {
		// The cache wraps any Store, so it layers above the sharded router
		// unchanged: memoized closures stay warm across sharded ingests.
		s.Store = closurecache.Wrap(s.Store)
	}
	if opt.EnableCache {
		s.Cache = engine.NewCache()
	}
	s.engine = engine.New(engine.Options{
		Registry:    s.Registry,
		Recorder:    s.Collector,
		Workers:     opt.Workers,
		Cache:       s.Cache,
		Agent:       opt.Agent,
		Environment: opt.Environment,
		Faults:      opt.Faults,
	})
	return s
}

// Run executes a workflow, capturing retrospective provenance and
// persisting the run log to the store. It returns the engine result and
// the stored log.
func (s *System) Run(ctx context.Context, wf *workflow.Workflow, inputs map[string]engine.Value) (*engine.Result, *provenance.RunLog, error) {
	res, err := s.engine.Run(ctx, wf, inputs)
	if err != nil {
		return nil, nil, err
	}
	log, err := s.Collector.Log(res.RunID)
	if err != nil {
		return nil, nil, err
	}
	if err := s.Store.PutRunLog(log); err != nil {
		return nil, nil, err
	}
	s.workflows[res.RunID] = wf.Clone()
	return res, log, nil
}

// WorkflowOf returns the workflow executed by a run.
func (s *System) WorkflowOf(runID string) (*workflow.Workflow, error) {
	wf, ok := s.workflows[runID]
	if !ok {
		return nil, fmt.Errorf("core: no workflow recorded for run %q", runID)
	}
	return wf, nil
}

// Lineage returns the upstream closure of an entity across all stored
// runs, pushed down into the backend's batch traversal API.
func (s *System) Lineage(entityID string) ([]string, error) {
	return s.Store.Closure(entityID, store.Up)
}

// Dependents returns the downstream closure of an entity.
func (s *System) Dependents(entityID string) ([]string, error) {
	return s.Store.Closure(entityID, store.Down)
}

// InvalidatedArtifacts lists the artifacts that must be recalled when an
// entity (e.g. a raw input from a defective instrument) is invalidated.
func (s *System) InvalidatedArtifacts(entityID string) ([]string, error) {
	deps, err := s.Dependents(entityID)
	if err != nil {
		return nil, err
	}
	ents, err := s.Store.Entities(deps)
	if err != nil {
		return nil, err
	}
	var out []string
	for i, id := range deps {
		if ents[i].Artifact != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Query runs a PQL query (SELECT / LINEAGE OF / DEPENDENTS OF) against the
// store.
func (s *System) Query(q string) (*pql.Result, error) {
	return pql.Run(s.Store, q)
}

// DatalogQuery evaluates a query atom against the standard provenance
// Datalog program (see query/datalog.ProvenanceRules) loaded with the
// store's facts. Closure-shaped atoms (ancestor with one bound argument)
// are pushed down to the store's batch traversal API and skip fact
// loading and fixpoint materialization entirely.
func (s *System) DatalogQuery(queryAtom string) (*datalog.QueryResult, error) {
	atom, err := datalog.ParseAtom(queryAtom)
	if err != nil {
		return nil, err
	}
	if res, pushed, err := datalog.AncestorQueryViaStore(s.Store, atom); pushed {
		return res, err
	}
	p, err := datalog.NewProvenanceProgram(s.Store)
	if err != nil {
		return nil, err
	}
	return p.Query(atom)
}

// CausalGraph builds the causal graph of a stored run.
func (s *System) CausalGraph(runID string) (*provenance.CausalGraph, error) {
	l, err := s.Store.RunLog(runID)
	if err != nil {
		return nil, err
	}
	return provenance.BuildCausalGraph(l)
}

// ExportOPM converts a stored run to an OPM graph under the given account.
func (s *System) ExportOPM(runID, account string) (*opm.Graph, error) {
	l, err := s.Store.RunLog(runID)
	if err != nil {
		return nil, err
	}
	return opm.FromRunLog(l, account)
}

// ReplayReport compares a re-execution against the original run.
type ReplayReport struct {
	OriginalRun string
	ReplayRun   string
	Reproduced  bool
	Diff        *provenance.RunDiff
}

// VerifyReproducibility re-executes the workflow of a stored run and
// checks that every module produced outputs with identical content hashes:
// the paper's core reproducibility claim (§2.3), made checkable.
func (s *System) VerifyReproducibility(ctx context.Context, runID string) (*ReplayReport, error) {
	wf, err := s.WorkflowOf(runID)
	if err != nil {
		return nil, err
	}
	orig, err := s.Store.RunLog(runID)
	if err != nil {
		return nil, err
	}
	res, replay, err := s.Run(ctx, wf, nil)
	if err != nil {
		return nil, err
	}
	d := provenance.DiffRuns(orig, replay)
	return &ReplayReport{
		OriginalRun: runID,
		ReplayRun:   res.RunID,
		Reproduced:  d.SameWorkflow && len(d.OutputChanges) == 0 && len(d.OnlyInA) == 0 && len(d.OnlyInB) == 0,
		Diff:        d,
	}, nil
}

// ReproductionRecipe returns the minimal plan (modules in causal order plus
// required raw inputs) for regenerating an artifact of a stored run.
func (s *System) ReproductionRecipe(runID, artifactID string) (*provenance.Recipe, error) {
	cg, err := s.CausalGraph(runID)
	if err != nil {
		return nil, err
	}
	return cg.ReproductionRecipe(artifactID)
}

// Annotate attaches user-defined provenance to an entity of the current
// session (it reaches the collector; logs already persisted to the store
// are immutable).
func (s *System) Annotate(subject string, kind provenance.EntityKind, key, value string) {
	s.Collector.Annotate(subject, kind, key, value, "")
}
