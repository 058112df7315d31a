// Package store provides the provenance storage infrastructure of §2.2:
// one Store interface with three backends from the storage spectrum the
// paper surveys —
//
//   - MemStore: native in-memory graph (adjacency maps), the baseline and
//     the oracle the other backends are tested against;
//   - TripleStore: provenance as (subject, predicate, object) triples with
//     SPO/POS/OSP indexes, the Semantic-Web/RDF approach of [46, 26, 22];
//   - FileStore: provenance as append-only log files with an offset index
//     and a resident entity table (interned IDs, handle-addressed
//     records), the XML/file-dialect approach, with crash recovery on
//     reopen.
//
// The survey's relational model (provenance as tuples in an RDBMS, [3])
// lives beside the experiments that time it, in package
// experiments/survey; provd never runs it.
//
// Query engines (package query) are written against the interface, so every
// language runs on every backend. Entity lookup (Entities), sequential
// scans as logs (ScanLogs) or as rows (ScanRows) and Checkpoint are methods
// every backend has: MemStore and TripleStore share the scans and a no-op
// Checkpoint through one embedded run-log helper and each looks entities
// up its own way, FileStore serves them from its log, entity table and row
// image, the sharded router (package shardedstore) scatters them to its
// shards, and the wrappers (closure cache, standing-query tap, the
// router's trace shim) inherit them by embedding.
//
// # Batch traversal
//
// Graph navigation is frontier-batched and has two primitives: Expand
// answers one whole BFS frontier per backend call (a single entity is a
// one-element frontier), and Closure evaluates a full lineage or
// dependents closure pushed down into the backend, so a closure costs
// O(hops) backend round-trips instead of O(edges). Each backend implements
// both natively: MemStore over its adjacency maps and TripleStore over its
// SPO/POS indexes, each under one read lock; FileStore over its resident
// entity table by handle, never touching disk. NaiveClosure (one
// single-entity Expand per visited node) is the reference BFS that
// conformance tests and benchmarks compare against.
package store

import (
	"errors"
	"fmt"

	"repro/internal/provenance"
)

// ErrNotFound is returned when an entity is not in the store.
var ErrNotFound = errors.New("store: not found")

// Direction orients graph traversal: Up walks toward the inputs an entity
// was derived from (lineage), Down toward everything derived from it
// (dependents).
type Direction int

// Traversal directions.
const (
	Up Direction = iota
	Down
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// ParseDirection maps "up"/"down" (the wire form used by the HTTP API and
// CLIs) to a Direction.
func ParseDirection(s string) (Direction, error) {
	switch s {
	case "up":
		return Up, nil
	case "down":
		return Down, nil
	}
	return 0, fmt.Errorf("store: unknown direction %q (want up or down)", s)
}

// Stats summarizes a store's contents and footprint.
type Stats struct {
	Runs        int
	Executions  int
	Artifacts   int
	Events      int
	Annotations int
	Bytes       int64 // approximate storage footprint
}

// Store persists and navigates retrospective provenance. Implementations
// must be safe for concurrent readers with a single writer.
type Store interface {
	// Checkpoint snapshots folded state next to the log; a no-op on the
	// resident backends.
	Checkpointer
	// PutRunLog persists a complete run log. Logs are immutable once
	// stored; re-putting a run ID is an error.
	PutRunLog(l *provenance.RunLog) error
	// RunLog retrieves a stored log by run ID.
	RunLog(runID string) (*provenance.RunLog, error)
	// Runs lists stored run IDs in insertion order.
	Runs() ([]string, error)
	// Entities returns the record of each ID, aligned with ids: the
	// artifact or the execution it names (artifact classification wins
	// for an ID stored as both, as in traversal), neither when unknown;
	// an ID several runs declare answers with the latest declaration. A
	// log-backed store reads and decodes each owning run once, however
	// many of the IDs it holds.
	Entities(ids []string) ([]Entity, error)
	// ScanLogs invokes fn once per stored run log, in Runs() order,
	// starting at the skip-th run. It covers the runs stored when the call
	// began; runs ingested while it streams may or may not be seen. fn
	// runs outside every store lock and must not modify the log; the scan
	// stops at fn's first error.
	ScanLogs(skip int, fn func(*provenance.RunLog) error) error
	// ScanRows is ScanLogs from the first run with each log flattened
	// (Rows): a file store emits from its row image without decoding a
	// record per run. The rows are valid only until fn returns.
	ScanRows(fn func(*RunRows) error) error
	// Expand answers one BFS frontier in a single backend call: for every
	// known entity in ids the result holds that entity's neighbors in the
	// given direction (the generating execution or used artifacts going Up;
	// consuming executions or generated artifacts going Down). It is the
	// store's one navigation primitive: a single entity's neighbors are a
	// one-element frontier. Neighbor lists are sorted and deduplicated. An
	// ID stored as both an artifact and an execution is classified as an
	// artifact. Known entities always have an entry (possibly empty: a raw
	// input going Up); unknown IDs are absent from the map rather than an
	// error, so callers can distinguish "no neighbors" from "no such
	// entity".
	Expand(ids []string, dir Direction) (map[string][]string, error)
	// Closure computes the full transitive closure of seed in the given
	// direction, pushed down into the backend: BFS order, seed excluded,
	// ErrNotFound when the seed is unknown. Equivalent to NaiveClosure but
	// O(hops) instead of O(edges) backend operations.
	Closure(seed string, dir Direction) ([]string, error)
	// Stats reports entity counts and approximate footprint.
	Stats() (Stats, error)
	// Name identifies the backend ("mem", "triple", "file", or a
	// router's "sharded(N×mem)").
	Name() string
	// Close releases resources.
	Close() error
}

// LocalCloser is the Shard contract of the sharded router's closure
// pushdown (shardedstore.Shard): run a BFS fixpoint entirely inside the
// backend, under one lock acquisition, from a whole batch of seeds,
// instead of being driven one frontier hop at a time from outside.
//
// A call walks in the backend's own handles and appends its answer to w:
// every entity it expanded — the known seeds plus everything transitively
// reachable from them through this backend's own edges — once each, in
// local discovery order, with its ID and its neighbour handles in the
// given direction, sorted by ID exactly as Expand would list them. The
// walk remembers across calls what it has reached, so a later call of the
// same closure (w.Begin starts the next one) never expands an entity
// again: an entity reached earlier ends the walk there and is absent from
// the call's answer. Unknown seeds are ignored. Seeds enter by ID, one
// hash each; nothing else the walk does hashes a string or allocates once
// w's buffers have grown.
//
// MemStore implements it over its adjacency maps, FileStore over its
// entity table: the two backends the sharded router accepts as shards.
type LocalCloser interface {
	CloseLocal(w *LocalWalk, seeds []string, dir Direction)
}

// closeOverExpand is the BFS of a closure over an Expand function: one
// Expand call per hop, visiting neighbors in per-node sorted order, seed
// excluded, ErrNotFound for unknown seeds. It is the body of NaiveClosure;
// the built-in backends implement Closure natively (a single-lock BFS).
func closeOverExpand(expand func([]string, Direction) (map[string][]string, error), seed string, dir Direction) ([]string, error) {
	seen := map[string]bool{}
	var order []string
	frontier := []string{seed}
	for hop := 0; len(frontier) > 0; hop++ {
		adj, err := expand(frontier, dir)
		if err != nil {
			return nil, err
		}
		if hop == 0 {
			if _, known := adj[seed]; !known {
				return nil, fmt.Errorf("%w: entity %q", ErrNotFound, seed)
			}
		}
		var next []string
		for _, id := range frontier {
			for _, n := range adj[id] {
				if !seen[n] {
					seen[n] = true
					order = append(order, n)
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return order, nil
}

// bfsClosure runs the same BFS over a per-node neighbor function; backends
// that can hold one lock across the whole traversal (mem, triple) use it
// with their locked lookup. neighbors reports ok=false for unknown
// entities.
func bfsClosure(seed string, dir Direction, neighbors func(id string, dir Direction) ([]string, bool)) ([]string, error) {
	if _, known := neighbors(seed, dir); !known {
		return nil, fmt.Errorf("%w: entity %q", ErrNotFound, seed)
	}
	seen := map[string]bool{}
	var order []string
	frontier := []string{seed}
	for len(frontier) > 0 {
		var next []string
		for _, id := range frontier {
			ns, _ := neighbors(id, dir)
			for _, n := range ns {
				if !seen[n] {
					seen[n] = true
					order = append(order, n)
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return order, nil
}

// NaiveClosure is the per-node reference BFS the batch API replaced: one
// single-entity Expand per visited node, ErrNotFound when a visited node is
// unknown. Conformance tests assert every backend's Closure matches it, and
// BenchmarkE4b quantifies the gap. It needs only s's Expand.
func NaiveClosure(s interface {
	Expand(ids []string, dir Direction) (map[string][]string, error)
}, entityID string, dir Direction) ([]string, error) {
	return closeOverExpand(func(ids []string, dir Direction) (map[string][]string, error) {
		out := make(map[string][]string, len(ids))
		for _, id := range ids {
			adj, err := s.Expand([]string{id}, dir)
			if err != nil {
				return nil, err
			}
			ns, ok := adj[id]
			if !ok {
				return nil, fmt.Errorf("%w: entity %q", ErrNotFound, id)
			}
			out[id] = ns
		}
		return out, nil
	}, entityID, dir)
}
