package relalg

import (
	"fmt"
	"sort"
)

// The operators in this file that take and return whole relations —
// Select, Project, Join, Union, GroupBy — are the streaming operators of
// iter.go run over a scan and materialized: each has one body, in
// iter.go, and these fix only the result's name.

// Pred is a selection predicate over a tuple's values (indexed by the
// relation's schema).
type Pred func(vals []Val) bool

// Select returns the tuples satisfying pred. Witnesses pass through
// unchanged: selection does not combine tuples.
func Select(r *Relation, pred Pred) *Relation {
	// A selection over a relation scan has no failing step.
	out, _ := materialize(streamSelect(newScan(r), pred), "σ("+r.Name+")")
	return out
}

// Eq builds a predicate comparing a column against a constant.
func Eq(r *Relation, col string, want Val) (Pred, error) {
	i, err := r.Col(col)
	if err != nil {
		return nil, err
	}
	return func(vals []Val) bool { return compareVals(vals[i], want) == 0 }, nil
}

// Project keeps the named columns, eliminating duplicate rows set-style;
// the witnesses of merged duplicates are unioned (alternative
// justifications).
func Project(r *Relation, cols ...string) (*Relation, error) {
	it, err := StreamProject(newScan(r), cols...)
	if err != nil {
		return nil, err
	}
	return materialize(it, "π("+r.Name+")")
}

// Join computes the natural equijoin on leftCol = rightCol. The output
// schema is left's columns followed by right's (right's join column
// prefixed with the relation name on collision). Witness sets of joined
// tuples are cross-merged: a joined tuple is justified by one witness from
// each side.
func Join(l, r *Relation, leftCol, rightCol string) (*Relation, error) {
	it, err := streamJoin(newScan(l), newScan(r), leftCol, rightCol, r.Name)
	if err != nil {
		return nil, err
	}
	return materialize(it, "("+l.Name+"⋈"+r.Name+")")
}

// Union computes set union of two relations with identical schemas,
// unioning witness sets of value-equal tuples.
func Union(a, b *Relation) (*Relation, error) {
	it, err := streamUnion(newScan(a), newScan(b))
	if err != nil {
		return nil, err
	}
	return materialize(it, "("+a.Name+"∪"+b.Name+")")
}

// AggFunc names an aggregate.
type AggFunc string

// Supported aggregates.
const (
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
	AggAvg   AggFunc = "avg"
)

// GroupBy groups by a key column and aggregates another. The output schema
// is [key, agg(col)]; each group's provenance is the union of its members'
// witnesses (every contributing tuple is part of why).
func GroupBy(r *Relation, keyCol string, agg AggFunc, aggCol string) (*Relation, error) {
	it, err := streamGroupBy(newScan(r), keyCol, agg, aggCol)
	if err != nil {
		return nil, err
	}
	return materialize(it, "γ("+r.Name+")")
}

func toFloat(v Val) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("value %v (%T) is not numeric", v, v)
}

// WhyProvenance returns the why-provenance of the first tuple whose values
// under col equal want, or nil if no tuple matches.
func WhyProvenance(r *Relation, col string, want Val) ([]Witness, error) {
	i, err := r.Col(col)
	if err != nil {
		return nil, err
	}
	for _, t := range r.Tuples {
		if compareVals(t.Values[i], want) == 0 {
			return cloneWitnesses(t.Prov), nil
		}
	}
	return nil, nil
}

// AllBaseTuples flattens a witness set into the sorted set of base tuple
// IDs mentioned anywhere in it: the "lineage" (in the Cui/Widom sense) of
// the output tuple.
func AllBaseTuples(ws []Witness) []TupleID {
	seen := map[TupleID]bool{}
	var out []TupleID
	for _, w := range ws {
		for _, id := range w {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
