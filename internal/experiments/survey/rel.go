// Package survey holds the storage and query models of the paper's §2.2
// survey that only the experiments run: provenance as tuples in relational
// tables (RelStore) and a SPARQL-like basic-graph-pattern engine over the
// triple store (RunSPARQL). E4, E6 and E11 time them beside the store
// package's backends; provd serves neither.
package survey

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/provenance"
	"repro/internal/relalg"
	"repro/internal/store"
)

// RelStore keeps provenance as tuples in relational tables, the approach of
// systems that map provenance onto an RDBMS [3]. Navigation queries are
// relational scans — deliberately index-free, so experiment E4 exposes the
// cost difference against adjacency- and triple-indexed backends. Expand
// answers a whole frontier with one pass of semijoin scans over the base
// rows, and a single entity's neighbours are a one-element frontier.
//
// Its tables are store.RowSchemas, filled from store.Rows; wallNanos and
// size are int64 values. It answers what E4 and E11 time (PutRunLog,
// Expand, Closure, Stats), not the whole store.Store contract.
type RelStore struct {
	mu     sync.RWMutex
	runs   map[string]bool // stored run IDs
	events int

	runRows  [][]relalg.Val
	execRows [][]relalg.Val
	artRows  [][]relalg.Val
	useRows  [][]relalg.Val
	genRows  [][]relalg.Val
	annRows  [][]relalg.Val
}

// NewRelStore returns an empty relational store.
func NewRelStore() *RelStore {
	return &RelStore{runs: map[string]bool{}}
}

// Name identifies the backend in experiment tables.
func (s *RelStore) Name() string { return "rel" }

// PutRunLog validates l and appends its rows to the base tables;
// re-putting a run ID is an error.
func (s *RelStore) PutRunLog(l *provenance.RunLog) error {
	if err := l.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runs[l.Run.ID] {
		return fmt.Errorf("survey: run %q already stored", l.Run.ID)
	}
	s.runs[l.Run.ID] = true
	s.events += len(l.Events)
	s.fold(store.Rows(l))
	return nil
}

// fold appends one run's rows to the base tables; the caller holds the
// write lock.
func (s *RelStore) fold(r *store.RunRows) {
	s.runRows = append(s.runRows, []relalg.Val{r.Run.ID, r.Run.Workflow, r.Run.Hash, r.Run.Agent, r.Run.Status})
	for _, e := range r.Executions {
		s.execRows = append(s.execRows, []relalg.Val{e.ID, e.Run, e.Module, e.ModuleType, e.Status, e.WallNanos})
	}
	for _, a := range r.Artifacts {
		s.artRows = append(s.artRows, []relalg.Val{a.ID, a.Run, a.Type, a.ContentHash, a.Size})
	}
	for _, e := range r.Edges {
		row := []relalg.Val{e.Exec, e.Artifact, e.Port}
		if e.Gen {
			s.genRows = append(s.genRows, row)
		} else {
			s.useRows = append(s.useRows, row)
		}
	}
	for _, an := range r.Annotations {
		s.annRows = append(s.annRows, []relalg.Val{an.Subject, an.Key, an.Value, an.Author})
	}
}

// Expand answers one BFS frontier as store.Store.Expand does. One hop
// costs a fixed number of semijoin scans — artifacts and executions to
// classify the frontier, then uses/gens for the adjacency — regardless of
// frontier width, where one call per entity would re-scan a table per
// frontier node. The semijoins (table ⋉ frontier) are evaluated directly
// over the base rows: materializing them through relalg would clone
// tuples and witness sets per hop, which costs more than the scan itself
// on narrow frontiers.
func (s *RelStore) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	frontier := make(map[string]bool, len(ids))
	for _, id := range ids {
		frontier[id] = true
	}
	out := make(map[string][]string, len(ids))
	isArt := map[string]bool{}
	isExec := map[string]bool{}
	for _, row := range s.artRows {
		if id := row[0].(string); frontier[id] {
			isArt[id] = true
			out[id] = nil
		}
	}
	for _, row := range s.execRows {
		// Artifact classification wins for an ID stored as both, as on
		// every backend.
		if id := row[0].(string); frontier[id] && !isArt[id] {
			isExec[id] = true
			out[id] = nil
		}
	}
	// uses(exec, artifact, port) and gens(exec, artifact, port): one
	// semijoin scan each, grouped back onto the frontier.
	switch dir {
	case store.Up:
		for _, row := range s.genRows {
			// Artifact -> generating execution: first scan hit wins.
			if art := row[1].(string); isArt[art] && out[art] == nil {
				out[art] = []string{row[0].(string)}
			}
		}
		for _, row := range s.useRows {
			if exec := row[0].(string); isExec[exec] {
				out[exec] = append(out[exec], row[1].(string))
			}
		}
	default:
		for _, row := range s.useRows {
			if art := row[1].(string); isArt[art] {
				out[art] = append(out[art], row[0].(string))
			}
		}
		for _, row := range s.genRows {
			if exec := row[0].(string); isExec[exec] {
				out[exec] = append(out[exec], row[1].(string))
			}
		}
	}
	for id, ns := range out {
		if dir == store.Up && isArt[id] {
			continue // single generator, already in scan order
		}
		out[id] = sortedUnique(ns)
	}
	return out, nil
}

// Closure computes seed's transitive closure as store.Store.Closure does,
// with the pushed-down plan an index-free relational backend wants: one
// scan per table builds the hash adjacency (the build side the per-hop
// semijoins would otherwise re-scan every hop), then the BFS runs over the
// hash maps. Total cost is O(rows + closure), where per-hop scans pay
// O(rows) per hop and the per-edge path paid O(rows) per visited node.
func (s *RelStore) Closure(seed string, dir store.Direction) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	isArt := make(map[string]bool, len(s.artRows))
	for _, row := range s.artRows {
		isArt[row[0].(string)] = true
	}
	isExec := make(map[string]bool, len(s.execRows))
	for _, row := range s.execRows {
		isExec[row[0].(string)] = true
	}
	genBy := map[string]string{} // artifact -> first generating execution
	adj := map[string][]string{} // execution->artifacts (Up) or either (Down)
	switch dir {
	case store.Up:
		for _, row := range s.genRows {
			if art := row[1].(string); genBy[art] == "" {
				genBy[art] = row[0].(string)
			}
		}
		for _, row := range s.useRows {
			exec := row[0].(string)
			adj[exec] = append(adj[exec], row[1].(string))
		}
	default:
		for _, row := range s.useRows {
			art := row[1].(string)
			adj[art] = append(adj[art], row[0].(string))
		}
		for _, row := range s.genRows {
			// An ID stored as both kinds is an artifact: its consumers,
			// not what it generated as an execution, are its neighbors.
			if exec := row[0].(string); !isArt[exec] {
				adj[exec] = append(adj[exec], row[1].(string))
			}
		}
	}
	neighbors := func(id string) []string {
		if isArt[id] && dir == store.Up {
			if g := genBy[id]; g != "" {
				return []string{g}
			}
			return nil
		}
		return sortedUnique(adj[id])
	}
	// The BFS runs here over the hash maps rather than through
	// store.CloseOverExpand: a map per hop costs that driver a quarter of
	// this plan's time on a deep chain (E4b, depth 128).
	if !isArt[seed] && !isExec[seed] {
		return nil, fmt.Errorf("%w: entity %q", store.ErrNotFound, seed)
	}
	seen := map[string]bool{}
	var order []string
	for frontier := []string{seed}; len(frontier) > 0; {
		var next []string
		for _, id := range frontier {
			for _, n := range neighbors(id) {
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

// Stats reports entity counts and an approximate footprint of the tables.
func (s *RelStore) Stats() (store.Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := store.Stats{
		Runs:        len(s.runRows),
		Executions:  len(s.execRows),
		Artifacts:   len(s.artRows),
		Events:      s.events,
		Annotations: len(s.annRows),
	}
	// Rough per-row footprints: values plus tuple/witness overhead.
	for _, rows := range [][][]relalg.Val{s.runRows, s.execRows, s.artRows, s.useRows, s.genRows, s.annRows} {
		for _, row := range rows {
			st.Bytes += 32 // tuple + witness overhead
			for _, v := range row {
				if str, ok := v.(string); ok {
					st.Bytes += int64(len(str))
				} else {
					st.Bytes += 8
				}
			}
		}
	}
	return st, nil
}

// sortedUnique returns a sorted, deduplicated copy of in; nil when empty.
func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}
