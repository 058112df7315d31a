package relalg

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Executor observability: bound plans, with rows counted centrally in
// Drain (iter.go) — the funnel every streaming execution exits through,
// whether compiled here or assembled directly by the PQL front-end.
var mExecPlans = obs.Default().Counter("prov_exec_plans_total", "Conjunctive query plans compiled.")

// This file is the shared conjunctive-query planner the query front-ends
// compile into. A Datalog rule body and a PQL FROM/JOIN clause have the
// same shape — a conjunction of leaf relations whose columns are bound to
// variables or constants — so one planner serves both: it pushes constant
// and repeated-variable selections into each leaf scan, orders the joins
// greedily without statistics (most-selective leaf first, then prefer
// leaves sharing already-bound variables, smallest first), and chains
// streaming natural hash joins over the iterator layer in iter.go.

// PlanTerm is one argument position of a leaf atom: either a variable
// (Var non-empty) or a constant value.
type PlanTerm struct {
	Var   string
	Const Val
}

// V makes a variable term; C makes a constant term.
func V(name string) PlanTerm { return PlanTerm{Var: name} }
func C(v Val) PlanTerm       { return PlanTerm{Const: v} }

// Leaf is one atom of a conjunctive query: a named base relation given as
// raw tuples (positional; Terms[i] binds column i). Tuples may carry
// why-provenance, which flows through the plan's joins.
type Leaf struct {
	Name   string
	Terms  []PlanTerm
	Tuples []Tuple
}

// vars returns the leaf's distinct variable names in first-occurrence
// order.
func (l *Leaf) vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range l.Terms {
		if t.Var != "" && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

func (l *Leaf) hasConst() bool {
	for _, t := range l.Terms {
		if t.Var == "" {
			return true
		}
	}
	return false
}

// Plan is a compiled conjunctive query bound to its tuples: a streaming
// iterator tree projecting the prepared output columns.
type Plan struct {
	root Iterator
}

// PreparedConj is a conjunctive plan with the statistics-free compilation
// work — per-leaf selection pushdown and the greedy join order — done once
// and the base tuples left unbound. Callers that execute the same query
// shape repeatedly over changing relations (the Datalog engine's rules,
// across semi-naive rounds and Evaluate calls) prepare once and Bind fresh
// tuple slices per execution, skipping recompilation entirely. A PreparedConj is immutable
// after PrepareConj and safe for concurrent Bind calls.
type PreparedConj struct {
	output []string
	order  []int
	leaves []preparedLeaf
}

// constSel / eqSel are one pushed-down selection each: column i equals a
// constant, or column i equals column j (a repeated variable).
type constSel struct {
	i int
	v Val
}
type eqSel struct{ i, j int }

// preparedLeaf is the compiled shape of one atom: everything compileLeaf
// derives from the terms, minus the tuples.
type preparedLeaf struct {
	name   string
	schema []string
	consts []constSel
	eqs    []eqSel
	idx    []int    // term position of each bound variable's first occurrence
	vars   []string // distinct variable names, first-occurrence order
}

// PrepareConj compiles leaves and output into a rebindable plan. The join
// order is chosen by the usual greedy heuristic using whatever tuple
// counts the leaves carry at prepare time (callers may pass empty Tuples;
// tie-breaks then fall back to leaf index) and is fixed for the lifetime
// of the PreparedConj — the heuristic's primary keys (shared bound
// variables, constant-bearing leaves) are statistics-free, which is what
// makes the cache sound.
func PrepareConj(leaves []Leaf, output []string) (*PreparedConj, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("relalg: plan: no leaves")
	}
	pc := &PreparedConj{output: append([]string(nil), output...)}

	bound := map[string]bool{}
	leafVars := make([][]string, len(leaves))
	for i := range leaves {
		pc.leaves = append(pc.leaves, prepareLeaf(&leaves[i]))
		leafVars[i] = pc.leaves[i].vars
		for _, v := range leafVars[i] {
			bound[v] = true
		}
	}
	for _, v := range output {
		if !bound[v] {
			return nil, fmt.Errorf("relalg: plan: output variable %q not bound by any leaf", v)
		}
	}
	pc.order = greedyOrder(leaves, leafVars)
	return pc, nil
}

// Bind attaches base tuples (one slice per leaf, in the original leaf
// order) to the prepared shape and returns a runnable Plan.
func (pc *PreparedConj) Bind(tuples [][]Tuple) (*Plan, error) {
	if len(tuples) != len(pc.leaves) {
		return nil, fmt.Errorf("relalg: bind: %d tuple slices for %d leaves", len(tuples), len(pc.leaves))
	}
	compiled := make([]Iterator, len(pc.leaves))
	for i := range pc.leaves {
		compiled[i] = pc.leaves[i].bind(tuples[i])
	}
	root := compiled[pc.order[0]]
	for _, i := range pc.order[1:] {
		root = streamNaturalJoin(root, compiled[i])
	}
	proj, err := streamProjectBag(root, pc.output...)
	if err != nil {
		return nil, err
	}
	mExecPlans.Inc()
	return &Plan{root: proj}, nil
}

// prepareLeaf derives scan schema, pushed-down selections and variable
// bind positions for one atom. The selection for constants and repeated
// variables runs against the raw scan, below every join.
func prepareLeaf(l *Leaf) preparedLeaf {
	pl := preparedLeaf{name: l.Name}
	pl.schema = make([]string, len(l.Terms))
	for i := range l.Terms {
		pl.schema[i] = fmt.Sprintf("$%d", i)
	}
	firstAt := map[string]int{}
	for i, t := range l.Terms {
		if t.Var == "" {
			pl.consts = append(pl.consts, constSel{i, t.Const})
			continue
		}
		if j, seen := firstAt[t.Var]; seen {
			pl.eqs = append(pl.eqs, eqSel{j, i})
		} else {
			firstAt[t.Var] = i
		}
	}
	pl.vars = l.vars()
	pl.idx = make([]int, len(pl.vars))
	for j, v := range pl.vars {
		pl.idx[j] = firstAt[v]
	}
	return pl
}

// bind builds scan → selection → bind for one prepared atom over fresh
// tuples.
func (pl *preparedLeaf) bind(tuples []Tuple) Iterator {
	var it Iterator = NewSliceScan(pl.name, pl.schema, tuples)
	if len(pl.consts) > 0 || len(pl.eqs) > 0 {
		consts, eqs := pl.consts, pl.eqs
		it = StreamSelect(it, func(vals []Val) bool {
			for _, c := range consts {
				if compareVals(vals[c.i], c.v) != 0 {
					return false
				}
			}
			for _, e := range eqs {
				if compareVals(vals[e.i], vals[e.j]) != 0 {
					return false
				}
			}
			return true
		})
	}
	return StreamBind(it, pl.idx, pl.vars)
}

// greedyOrder picks the join order without statistics: start from the most
// selective leaf (constant-bearing first, then fewest base tuples), then
// repeatedly pick the leaf sharing the most already-bound variables —
// breaking ties by constant-bearing then size — so hash joins stay keyed
// rather than degrading to cross products. Leaves sharing no variables are
// deferred until nothing connected remains.
func greedyOrder(leaves []Leaf, leafVars [][]string) []int {
	n := len(leaves)
	remaining := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		remaining[i] = true
	}

	// better reports whether leaf a beats leaf b under (shared bound vars
	// desc, has-const desc, size asc, index asc).
	better := func(a, b int, sharedA, sharedB int) bool {
		if sharedA != sharedB {
			return sharedA > sharedB
		}
		ca, cb := leaves[a].hasConst(), leaves[b].hasConst()
		if ca != cb {
			return ca
		}
		la, lb := len(leaves[a].Tuples), len(leaves[b].Tuples)
		if la != lb {
			return la < lb
		}
		return a < b
	}

	bound := map[string]bool{}
	shared := func(i int) int {
		s := 0
		for _, v := range leafVars[i] {
			if bound[v] {
				s++
			}
		}
		return s
	}

	var order []int
	for len(remaining) > 0 {
		cand := make([]int, 0, len(remaining))
		for i := range remaining {
			cand = append(cand, i)
		}
		sort.Ints(cand)
		best := cand[0]
		for _, i := range cand[1:] {
			if better(i, best, shared(i), shared(best)) {
				best = i
			}
		}
		order = append(order, best)
		delete(remaining, best)
		for _, v := range leafVars[best] {
			bound[v] = true
		}
	}
	return order
}

// Run drains the plan, invoking emit for each output row. The row slice is
// only valid during the call.
func (p *Plan) Run(emit func(vals []Val, prov []Witness) error) error {
	return Drain(p.root, func(t *Tuple) error { return emit(t.Values, t.Prov) })
}
