package datalog

import (
	"fmt"

	"repro/internal/relalg"
)

// This file is the streaming rule-body executor: every rule body, and
// every query atom, is a conjunctive plan over the relalg iterator layer —
// one leaf per body atom — and the planner pushes constant/repeated-
// variable selections into the leaf scans and orders the hash joins
// greedily (smallest relation first, bound-variable preference). It is the
// package's only evaluator; the nested-loop evaluator it replaced is the
// in-package test reference (reference_test.go).
//
// A rule's plan is prepared once (relalg.PrepareConj) and cached on the
// Program, then rebound per execution: to the full relations the first
// time the rule runs, and to the full relations with one atom's leaf
// narrowed to a delta in semi-naive rounds. The shape is the same in both
// cases, and it carries no statistics, so nothing ever invalidates it;
// Retire drops it with its rule.

// appendTuple mirrors a newly inserted fact into the planner's leaf
// relation for its predicate. Slices are append-only, so plans bound
// earlier in a round keep their snapshot while later plans see the new
// facts.
func (p *Program) appendTuple(pred string, vals []string) {
	vs := make([]relalg.Val, len(vals))
	for i, v := range vals {
		vs[i] = v
	}
	p.rel[pred] = append(p.rel[pred], relalg.Tuple{Values: vs})
}

// strs copies a row of planner values, all strings, out as strings.
func strs(vals []relalg.Val) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.(string)
	}
	return out
}

// Evaluate runs semi-naive bottom-up evaluation to fixpoint, materializing
// every derivable fact for rule-head predicates, and returns the number of
// facts it derived. It picks up where the previous Evaluate stopped: the
// first round runs each rule evaluated before only over the facts added
// since (one plan per body atom that gained some, that atom bound to the
// new facts), and each rule added since once over the full relations;
// later rounds run every rule over the previous round's derivations. With
// nothing added since, it binds no plan at all.
func (p *Program) Evaluate() int {
	derived := 0
	delta := map[string][]relalg.Tuple{}
	for pred, tups := range p.rel {
		if n := p.seen[pred]; n < len(tups) {
			delta[pred] = tups[n:]
		}
	}
	next := map[string][]relalg.Tuple{}
	for ri := range p.rules {
		if ri < p.evaluated {
			derived += p.runDelta(ri, delta, next)
		} else {
			derived += p.runRule(ri, -1, nil, next)
		}
	}
	for len(next) > 0 {
		delta, next = next, map[string][]relalg.Tuple{}
		for ri := range p.rules {
			derived += p.runDelta(ri, delta, next)
		}
	}
	p.evaluated = len(p.rules)
	for pred, tups := range p.rel {
		p.seen[pred] = len(tups)
	}
	return derived
}

// runDelta runs rule ri once per body atom whose predicate has tuples in
// delta, with that atom bound to them and the rest to the full relations:
// every fact the delta makes newly derivable uses a delta tuple in some
// position.
func (p *Program) runDelta(ri int, delta, next map[string][]relalg.Tuple) int {
	n := 0
	for focus, atom := range p.rules[ri].Body {
		if d := delta[atom.Pred]; len(d) > 0 {
			n += p.runRule(ri, focus, d, next)
		}
	}
	return n
}

// rulePlan is one rule's cached compilation: the rebindable body plan,
// projecting the head's distinct variables, and where each lands.
type rulePlan struct {
	pc    *relalg.PreparedConj
	varAt map[string]int
}

// prepare compiles a conjunction, one planner leaf per atom carrying the
// given tuples (their sizes break the join order's ties), projected on
// out. It cannot fail on what this package passes it: PrepareConj rejects
// only an empty conjunction, which AddRule refuses and Query never builds,
// and an output variable no atom binds, which AddRule refuses and Query
// never asks for. A failure is a bug in this package, not in the program
// being evaluated.
func prepare(atoms []Atom, tuples [][]relalg.Tuple, out []string) *relalg.PreparedConj {
	leaves := make([]relalg.Leaf, len(atoms))
	for i, atom := range atoms {
		terms := make([]relalg.PlanTerm, len(atom.Args))
		for j, t := range atom.Args {
			if t.IsVar {
				terms[j] = relalg.V(t.Value)
			} else {
				terms[j] = relalg.C(t.Value)
			}
		}
		leaves[i] = relalg.Leaf{Name: atom.Pred, Terms: terms, Tuples: tuples[i]}
	}
	pc, err := relalg.PrepareConj(leaves, out, nil)
	if err != nil {
		panic(fmt.Sprintf("datalog: compile %v: %v", atoms, err))
	}
	return pc
}

// run binds a prepared plan to one tuple slice per atom and streams its
// rows. The leaves are in-memory scans and emit never fails, so neither
// step can fail short of a bug here either.
func run(pc *relalg.PreparedConj, tuples [][]relalg.Tuple, emit func([]relalg.Val)) {
	it, err := pc.Bind(tuples, nil)
	if err == nil {
		err = relalg.Drain(it, func(t *relalg.Tuple) error {
			emit(t.Values)
			return nil
		})
	}
	if err != nil {
		panic(fmt.Sprintf("datalog: run: %v", err))
	}
}

// fullRelations returns the current relation of each atom's predicate.
func (p *Program) fullRelations(atoms []Atom) [][]relalg.Tuple {
	out := make([][]relalg.Tuple, len(atoms))
	for i, atom := range atoms {
		out[i] = p.rel[atom.Pred]
	}
	return out
}

// runRule evaluates rule ri over the full relations, or with the atom at
// focus (when not -1) bound to the delta tuples instead, inserting novel
// head facts into the program and the next-round delta. Returns the number
// of new facts.
func (p *Program) runRule(ri, focus int, delta []relalg.Tuple, next map[string][]relalg.Tuple) int {
	r := p.rules[ri]
	tuples := p.fullRelations(r.Body)
	rp := p.compiled[ri]
	if rp == nil {
		rp = &rulePlan{varAt: map[string]int{}}
		var outVars []string
		for _, t := range r.Head.Args {
			if _, ok := rp.varAt[t.Value]; t.IsVar && !ok {
				rp.varAt[t.Value] = len(outVars)
				outVars = append(outVars, t.Value)
			}
		}
		rp.pc = prepare(r.Body, tuples, outVars)
		p.compiled[ri] = rp
	}
	if focus >= 0 {
		tuples[focus] = delta
	}
	n := 0
	run(rp.pc, tuples, func(vals []relalg.Val) {
		out := make([]string, len(r.Head.Args))
		for i, t := range r.Head.Args {
			if t.IsVar {
				out[i] = vals[rp.varAt[t.Value]].(string)
			} else {
				out[i] = t.Value
			}
		}
		n += p.insertDerived(r.Head.Pred, out, next)
	})
	return n
}

// insertDerived records a derived fact if novel, mirroring it into the
// planner relation and the next-round delta. Returns 1 on novelty.
func (p *Program) insertDerived(pred string, vals []string, next map[string][]relalg.Tuple) int {
	key := encodeTuple(vals)
	if p.facts[pred] == nil {
		p.facts[pred] = map[string]bool{}
	}
	if p.facts[pred][key] {
		return 0
	}
	p.facts[pred][key] = true
	p.appendTuple(pred, vals)
	tups := p.rel[pred]
	next[pred] = append(next[pred], tups[len(tups)-1])
	return 1
}
