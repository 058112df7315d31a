package datalog

import (
	"sort"
	"strings"
)

// This file is the reference evaluator equiv_test.go compares Evaluate
// against: the original per-binding nested-loop semi-naive fixpoint, moved
// here unchanged when the streaming executor became the only one in the
// package proper, and the nested-loop matcher Query used before it too
// went through the planner. Both evaluators reach the same fixpoint and
// derived-fact count, since a fact is counted once no matter which round
// derives it.

// binding maps variable names to constants.
type binding map[string]string

// decodeTuple inverts encodeTuple for a predicate of the given arity: the
// empty key is the empty tuple at arity 0 and one empty constant at 1.
func decodeTuple(s string, arity int) []string {
	if arity == 0 {
		return nil
	}
	return strings.Split(s, fieldSep)
}

func unify(atom Atom, vals []string, b binding) (binding, bool) {
	nb := b
	copied := false
	for i, t := range atom.Args {
		if !t.IsVar {
			if t.Value != vals[i] {
				return nil, false
			}
			continue
		}
		if have, ok := nb[t.Value]; ok {
			if have != vals[i] {
				return nil, false
			}
			continue
		}
		if !copied {
			nb = make(binding, len(b)+1)
			for k, v := range b {
				nb[k] = v
			}
			copied = true
		}
		nb[t.Value] = vals[i]
	}
	return nb, true
}

// matchReference returns the stored facts that unify with the query atom,
// one sorted distinct row per binding of its variables, without evaluating
// anything: the reference's Query.
func (p *Program) matchReference(q Atom) *QueryResult {
	var vars []string
	seen := map[string]bool{}
	for _, t := range q.Args {
		if t.IsVar && !seen[t.Value] {
			seen[t.Value] = true
			vars = append(vars, t.Value)
		}
	}
	res := &QueryResult{Vars: vars}
	rowSet := map[string]bool{}
	for key := range p.facts[q.Pred] {
		b, ok := unify(q, decodeTuple(key, p.arity[q.Pred]), binding{})
		if !ok {
			continue
		}
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = b[v]
		}
		k := encodeTuple(row)
		if !rowSet[k] {
			rowSet[k] = true
			res.Rows = append(res.Rows, row)
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return encodeTuple(res.Rows[i]) < encodeTuple(res.Rows[j])
	})
	return res
}

// evaluateReference runs the nested-loop evaluator to fixpoint and returns
// the number of derived facts.
func (p *Program) evaluateReference() int {
	derived := 0
	// delta holds facts new in the previous iteration, per predicate.
	delta := map[string]map[string]bool{}
	for pred, m := range p.facts {
		delta[pred] = map[string]bool{}
		for k := range m {
			delta[pred][k] = true
		}
	}
	for {
		next := map[string]map[string]bool{}
		for _, r := range p.rules {
			// Semi-naive: for each body position, require that atom to match
			// the delta and the others the full store.
			for focus := range r.Body {
				if len(delta[r.Body[focus].Pred]) == 0 {
					continue
				}
				p.joinBody(r, focus, delta, func(b binding) {
					vals := make([]string, len(r.Head.Args))
					for i, t := range r.Head.Args {
						if t.IsVar {
							vals[i] = b[t.Value]
						} else {
							vals[i] = t.Value
						}
					}
					key := encodeTuple(vals)
					if p.facts[r.Head.Pred] == nil {
						p.facts[r.Head.Pred] = map[string]bool{}
					}
					if !p.facts[r.Head.Pred][key] {
						p.facts[r.Head.Pred][key] = true
						p.appendTuple(r.Head.Pred, vals)
						if next[r.Head.Pred] == nil {
							next[r.Head.Pred] = map[string]bool{}
						}
						next[r.Head.Pred][key] = true
						derived++
					}
				})
			}
		}
		if len(next) == 0 {
			return derived
		}
		delta = next
	}
}

// joinBody enumerates bindings satisfying the rule body, with the atom at
// index focus restricted to delta facts.
func (p *Program) joinBody(r Rule, focus int, delta map[string]map[string]bool, emit func(binding)) {
	var step func(i int, b binding)
	step = func(i int, b binding) {
		if i == len(r.Body) {
			emit(b)
			return
		}
		atom := r.Body[i]
		var source map[string]bool
		if i == focus {
			source = delta[atom.Pred]
		} else {
			source = p.facts[atom.Pred]
		}
		for key := range source {
			vals := decodeTuple(key, p.arity[atom.Pred])
			if len(vals) != len(atom.Args) {
				continue
			}
			nb, ok := unify(atom, vals, b)
			if !ok {
				continue
			}
			step(i+1, nb)
		}
	}
	step(0, binding{})
}
