package datalog

import (
	"fmt"

	"repro/internal/relalg"
)

// This file is the streaming rule-body executor: semi-naive rounds compile
// each (rule, focus-atom) pair into a conjunctive plan over the relalg
// iterator layer — one leaf per body atom, the focus atom bound to the
// previous round's delta — and let the planner push constant/repeated-
// variable selections into the leaf scans and order the hash joins
// greedily (smallest relation first, bound-variable preference). It is the
// package's only evaluator; the nested-loop evaluator it replaced is the
// in-package test reference (reference_test.go).
//
// Each (rule, focus) pair's compiled shape — selections, bind positions,
// join order — is prepared once (relalg.PrepareConj) and cached on the
// Program, then rebound to the round's current relations per execution.
// Nothing invalidates the cache: plans carry no statistics, and rules are
// append-only.

// appendTuple mirrors a newly inserted fact into the planner's leaf
// relation for its predicate. Slices are append-only, so plans compiled
// earlier in a round keep their snapshot while later plans see the new
// facts.
func (p *Program) appendTuple(pred string, vals []string) {
	vs := make([]relalg.Val, len(vals))
	for i, v := range vals {
		vs[i] = v
	}
	p.rel[pred] = append(p.rel[pred], relalg.Tuple{Values: vs})
}

// Evaluate runs semi-naive bottom-up evaluation to fixpoint, materializing
// all derivable facts for rule-head predicates. It returns the total number
// of derived facts. Each rule body is compiled into a streaming
// relational-algebra plan with greedy hash-join ordering.
func (p *Program) Evaluate() int {
	derived := 0
	// delta holds the tuples new in the previous round, per predicate.
	delta := map[string][]relalg.Tuple{}
	for pred, tups := range p.rel {
		delta[pred] = tups
	}
	for {
		next := map[string][]relalg.Tuple{}
		for ri, r := range p.rules {
			for focus := range r.Body {
				if len(delta[r.Body[focus].Pred]) == 0 {
					continue
				}
				derived += p.runRule(ri, r, focus, delta, next)
			}
		}
		if len(next) == 0 {
			return derived
		}
		delta = next
	}
}

// planKey addresses one cached rule plan: rule index × focus-atom index.
type planKey struct {
	rule  int
	focus int
}

// rulePlan is one cached compilation: the rebindable plan plus the head
// projection derived from the rule.
type rulePlan struct {
	pc      *relalg.PreparedConj
	outVars []string
	varAt   map[string]int
}

// preparedPlan returns the cached plan for (rule, focus), compiling on
// first use.
func (p *Program) preparedPlan(ri int, r Rule, focus int) *rulePlan {
	k := planKey{ri, focus}
	if rp, ok := p.plans[k]; ok {
		return rp
	}
	rp := &rulePlan{varAt: map[string]int{}}
	leaves := make([]relalg.Leaf, len(r.Body))
	for i, atom := range r.Body {
		terms := make([]relalg.PlanTerm, len(atom.Args))
		for j, t := range atom.Args {
			if t.IsVar {
				terms[j] = relalg.V(t.Value)
			} else {
				terms[j] = relalg.C(t.Value)
			}
		}
		// The focus leaf is compiled with the same shape as the rest; only
		// Bind distinguishes it, attaching the round's delta tuples. Tuple
		// counts at prepare time act solely as join-order tie-breaks.
		leaves[i] = relalg.Leaf{Name: atom.Pred, Terms: terms, Tuples: p.rel[atom.Pred]}
	}
	// Output: the distinct head variables, in head-argument order.
	for _, t := range r.Head.Args {
		if t.IsVar {
			if _, ok := rp.varAt[t.Value]; !ok {
				rp.varAt[t.Value] = len(rp.outVars)
				rp.outVars = append(rp.outVars, t.Value)
			}
		}
	}
	// Compilation cannot fail here: PrepareConj rejects only an empty body,
	// which the caller's loop over body atoms never reaches, and a head
	// variable no body atom binds, which AddRule refuses. A failure is a bug
	// in this package, not in the program being evaluated.
	pc, err := relalg.PrepareConj(leaves, rp.outVars)
	if err != nil {
		panic(fmt.Sprintf("datalog: compile %s: %v", r.Head, err))
	}
	rp.pc = pc
	if p.plans == nil {
		p.plans = map[planKey]*rulePlan{}
	}
	p.plans[k] = rp
	return rp
}

// runRule evaluates one rule with the focus atom bound to the delta,
// inserting novel head facts into the program and the next-round delta.
// Returns the number of new facts.
func (p *Program) runRule(ri int, r Rule, focus int, delta, next map[string][]relalg.Tuple) int {
	rp := p.preparedPlan(ri, r, focus)
	tuples := make([][]relalg.Tuple, len(r.Body))
	for i, atom := range r.Body {
		if i == focus {
			tuples[i] = delta[atom.Pred]
		} else {
			tuples[i] = p.rel[atom.Pred]
		}
	}
	// Bind gets one slice per leaf and projects variables preparedPlan
	// checked; the plan's leaves are in-memory scans and emit returns nil.
	// Neither call can fail short of a bug here, so neither error has a
	// caller to go to.
	plan, err := rp.pc.Bind(tuples, relalg.PlanOptions{})
	if err != nil {
		panic(fmt.Sprintf("datalog: bind %s: %v", r.Head, err))
	}
	n := 0
	err = plan.Run(func(vals []relalg.Val, _ []relalg.Witness) error {
		out := make([]string, len(r.Head.Args))
		for i, t := range r.Head.Args {
			if t.IsVar {
				out[i] = vals[rp.varAt[t.Value]].(string)
			} else {
				out[i] = t.Value
			}
		}
		n += p.insertDerived(r.Head.Pred, out, next)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("datalog: run %s: %v", r.Head, err))
	}
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
