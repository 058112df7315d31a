package datalog

import (
	"errors"
	"sort"

	"repro/internal/provenance"
	"repro/internal/store"
)

// LoadStore loads base provenance facts from a store into a program,
// establishing the standard extensional schema the provenance rules
// (ProvenanceRules) are written against:
//
//	used(Exec, Artifact)        execution consumed artifact
//	generated(Exec, Artifact)   execution produced artifact
//	module(Exec, ModuleID)      execution instantiated module
//	moduleType(Exec, Type)      module type name
//	status(Exec, Status)        terminal status
//	artifact(Artifact, Type)    artifact with its data type
//	partOfRun(Entity, Run)      entity belongs to run
//	agent(Run, Agent)           run executed on behalf of agent
func LoadStore(p *Program, s store.Store) error {
	return s.ScanRows(func(r *store.RunRows) error {
		return rowFacts(r, p.AddFact)
	})
}

// LogFacts flattens one run log into the extensional schema above,
// invoking emit once per fact: a projection of the log's rows
// (store.Rows), as LoadStore's facts are a projection of the stored rows.
// LoadStore folds whole stores that way, and the standing-query subsystem
// folds per-ingest deltas through LogFacts, so a subscription's
// incremental facts are exactly the ones a fresh LoadStore would produce.
func LogFacts(l *provenance.RunLog, emit func(pred string, vals ...string) error) error {
	return rowFacts(store.Rows(l), emit)
}

// rowFacts emits one run's facts, predicate by predicate in row order.
func rowFacts(r *store.RunRows, emit func(pred string, vals ...string) error) error {
	runID := r.Run.ID
	if err := emit("agent", runID, r.Run.Agent); err != nil {
		return err
	}
	for _, e := range r.Executions {
		if err := emit("module", e.ID, e.Module); err != nil {
			return err
		}
		if err := emit("moduleType", e.ID, e.ModuleType); err != nil {
			return err
		}
		if err := emit("status", e.ID, e.Status); err != nil {
			return err
		}
		if err := emit("partOfRun", e.ID, runID); err != nil {
			return err
		}
	}
	for _, a := range r.Artifacts {
		if err := emit("artifact", a.ID, a.Type); err != nil {
			return err
		}
		if err := emit("partOfRun", a.ID, runID); err != nil {
			return err
		}
	}
	for _, e := range r.Edges {
		pred := "used"
		if e.Gen {
			pred = "generated"
		}
		if err := emit(pred, e.Exec, e.Artifact); err != nil {
			return err
		}
	}
	return nil
}

// ExtensionalArity maps the extensional predicates LoadStore/LogFacts emit
// to their arities — the schema conjunctive standing queries validate
// against.
func ExtensionalArity() map[string]int {
	return map[string]int{
		"used": 2, "generated": 2, "module": 2, "moduleType": 2,
		"status": 2, "artifact": 2, "partOfRun": 2, "agent": 2,
	}
}

// ProvenanceRules is the standard intensional schema: direct dependency and
// its transitive closure over the bipartite causal graph. dep(X, Y) reads
// "X causally depends on Y".
const ProvenanceRules = `
dep(E, A) :- used(E, A).
dep(A, E) :- generated(E, A).
ancestor(X, Y) :- dep(X, Y).
ancestor(X, Z) :- dep(X, Y), ancestor(Y, Z).
derivedFrom(A2, A1) :- generated(E, A2), used(E, A1).
sameSource(A, B) :- derivedFrom(A, S), derivedFrom(B, S).
`

// AncestorQueryViaStore answers ancestor/2 query atoms with exactly one
// bound argument by pushing the closure down to the store's batch
// traversal API instead of loading every fact and materializing the full
// Datalog fixpoint. Under ProvenanceRules, ancestor(c, Y) binds Y to the
// upstream closure of c and ancestor(X, c) binds X to the downstream
// closure, so one Store.Closure call — O(hops) backend operations — yields
// exactly the fixpoint's rows. The bool result reports whether the atom
// had a pushed-down shape; when false, callers fall back to the fixpoint.
func AncestorQueryViaStore(s store.Store, q Atom) (*QueryResult, bool, error) {
	if q.Pred != "ancestor" || len(q.Args) != 2 {
		return nil, false, nil
	}
	a, b := q.Args[0], q.Args[1]
	var seed string
	var dir store.Direction
	var v string
	switch {
	case !a.IsVar && b.IsVar:
		seed, dir, v = a.Value, store.Up, b.Value
	case a.IsVar && !b.IsVar:
		seed, dir, v = b.Value, store.Down, a.Value
	default:
		return nil, false, nil
	}
	res := &QueryResult{Vars: []string{v}}
	ids, err := s.Closure(seed, dir)
	if errors.Is(err, store.ErrNotFound) {
		// The fixpoint yields no rows for an unknown constant; so do we.
		return res, true, nil
	}
	if err != nil {
		return nil, true, err
	}
	sort.Strings(ids)
	for _, id := range ids {
		res.Rows = append(res.Rows, []string{id})
	}
	return res, true, nil
}

// NewProvenanceProgram builds a program with the provenance rules loaded
// and facts from the store.
func NewProvenanceProgram(s store.Store) (*Program, error) {
	p, err := ParseProgram(ProvenanceRules)
	if err != nil {
		return nil, err
	}
	if err := LoadStore(p, s); err != nil {
		return nil, err
	}
	return p, nil
}
