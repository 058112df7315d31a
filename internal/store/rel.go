package store

import (
	"fmt"

	"repro/internal/provenance"
	"repro/internal/relalg"
)

// RelStore keeps provenance as tuples in relational tables, the approach of
// systems that map provenance onto an RDBMS [3]. Navigation queries are
// relational scans — deliberately index-free, so experiment E4 exposes the
// cost difference against adjacency- and triple-indexed backends. Expand
// answers a whole frontier with one pass of semijoin scans over the base
// rows, and a single entity's neighbours are a one-element frontier.
//
// Its tables are RowSchemas, filled from Rows; wallNanos and size are
// int64 values.
type RelStore struct {
	runLogs

	runRows  [][]relalg.Val
	execRows [][]relalg.Val
	artRows  [][]relalg.Val
	useRows  [][]relalg.Val
	genRows  [][]relalg.Val
	annRows  [][]relalg.Val

	dirty  bool
	tables map[string]*relalg.Relation
}

// NewRelStore returns an empty relational store.
func NewRelStore() *RelStore {
	return &RelStore{tables: map[string]*relalg.Relation{}}
}

var _ Store = (*RelStore)(nil)

// Name implements Store.
func (s *RelStore) Name() string { return "rel" }

// PutRunLog implements Store.
func (s *RelStore) PutRunLog(l *provenance.RunLog) error {
	return s.put(l, func() { s.fold(Rows(l)) })
}

// fold appends one run's rows to the base tables; the caller holds the
// write lock.
func (s *RelStore) fold(r *RunRows) {
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
	s.dirty = true
}

// Tables materializes (lazily, after writes) the current relational view.
// The returned relations are immutable. Exposed so the PQL engine and
// dbprov can query provenance relationally.
func (s *RelStore) Tables() map[string]*relalg.Relation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuildLocked()
	out := make(map[string]*relalg.Relation, len(s.tables))
	for k, v := range s.tables {
		out[k] = v
	}
	return out
}

func (s *RelStore) rebuildLocked() {
	if !s.dirty && len(s.tables) > 0 {
		return
	}
	rows := map[string][][]relalg.Val{
		"runs": s.runRows, "executions": s.execRows, "artifacts": s.artRows,
		"uses": s.useRows, "gens": s.genRows, "annotations": s.annRows,
	}
	s.tables = make(map[string]*relalg.Relation, len(rows))
	for name, schema := range RowSchemas {
		r, err := relalg.NewRelation(name, schema, rows[name])
		if err != nil {
			// Schemas are static and rows are arity-checked on insert.
			panic(fmt.Sprintf("store: rebuilding %s: %v", name, err))
		}
		s.tables[name] = r
	}
	s.dirty = false
}

func (s *RelStore) table(name string) *relalg.Relation {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuildLocked()
	return s.tables[name]
}

// Entities implements Store with one selection per entity table,
// artifacts ⋉ ids and executions ⋉ ids, the artifact row winning for an
// ID in both. An ID declared by several runs answers with its last row.
func (s *RelStore) Entities(ids []string) ([]Entity, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	in := func(vals []relalg.Val) bool { return want[vals[0].(string)] } // id is column 0 of both
	arts := map[string]*provenance.Artifact{}
	for _, t := range relalg.Select(s.table("artifacts"), in).Tuples {
		v := t.Values
		arts[v[0].(string)] = &provenance.Artifact{
			ID: v[0].(string), RunID: v[1].(string), Type: v[2].(string),
			ContentHash: v[3].(string), Size: v[4].(int64),
		}
	}
	execs := map[string]*provenance.Execution{}
	for _, t := range relalg.Select(s.table("executions"), in).Tuples {
		v := t.Values
		execs[v[0].(string)] = &provenance.Execution{
			ID: v[0].(string), RunID: v[1].(string), ModuleID: v[2].(string), ModuleType: v[3].(string),
			Status: provenance.ExecStatus(v[4].(string)), WallNanos: v[5].(int64),
		}
	}
	out := make([]Entity, len(ids))
	for i, id := range ids {
		if a := arts[id]; a != nil {
			out[i].Artifact = a
		} else {
			out[i].Execution = execs[id]
		}
	}
	return out, nil
}

// Expand implements Store. One hop costs a fixed number of semijoin scans
// — artifacts and executions to classify the frontier, then uses/gens for
// the adjacency — regardless of frontier width, where one call per entity
// would re-scan a table per frontier node. The semijoins (table ⋉ frontier)
// are evaluated directly over the base rows: materializing them through
// relalg would clone tuples and witness sets per hop, which costs more
// than the scan itself on narrow frontiers.
func (s *RelStore) Expand(ids []string, dir Direction) (map[string][]string, error) {
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
	case Up:
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
		if dir == Up && isArt[id] {
			continue // single generator, already in scan order
		}
		out[id] = sortedUnique(ns)
	}
	return out, nil
}

// Closure implements Store with the pushed-down plan an index-free
// relational backend wants for a whole closure: one scan per table builds
// the hash adjacency (the build side the per-hop semijoins would otherwise
// re-scan every hop), then the BFS runs over the hash maps. Total cost is
// O(rows + closure), where per-hop scans pay O(rows) per hop and the
// per-edge path paid O(rows) per visited node.
func (s *RelStore) Closure(seed string, dir Direction) ([]string, error) {
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
	case Up:
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
	return bfsClosure(seed, dir, func(id string, d Direction) ([]string, bool) {
		switch {
		case isArt[id]:
			if d == Up {
				if g := genBy[id]; g != "" {
					return []string{g}, true
				}
				return nil, true
			}
			return sortedUnique(adj[id]), true
		case isExec[id]:
			return sortedUnique(adj[id]), true
		}
		return nil, false
	})
}

// Stats implements Store.
func (s *RelStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Runs: len(s.logs)}
	st.Executions = len(s.execRows)
	st.Artifacts = len(s.artRows)
	for _, l := range s.logs {
		st.Events += len(l.Events)
		st.Annotations += len(l.Annotations)
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

// Close implements Store.
func (s *RelStore) Close() error { return nil }
