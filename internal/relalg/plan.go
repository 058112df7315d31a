package relalg

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Executor observability: bound plans — every Datalog rule execution and
// query atom, and every PQL SELECT — with rows counted centrally in Drain
// (iter.go), the funnel every streaming execution exits through.
var mExecPlans = obs.Default().Counter("prov_exec_plans_total", "Conjunctive query plans compiled.")

// This file is the shared conjunctive-query planner the query front-ends
// compile into. A Datalog rule body and a PQL FROM/JOIN clause have the
// same shape — a conjunction of leaf relations whose columns are bound to
// variables or constants, plus residual filters over those variables — so
// one planner serves both: it orders the joins greedily without
// statistics (most-selective leaf first, then prefer leaves sharing
// already-bound variables, smallest first), runs each selection at the
// lowest point where its variables are bound — constants, repeated
// variables and single-leaf filters on the leaf scan, the rest just above
// the first join that binds them — and chains streaming natural hash joins
// over the iterator layer in iter.go.

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

// Filter is a residual condition of a conjunctive query: Pred is called
// with the values of Vars, in that order, and every variable must be bound
// by some leaf. The planner runs it on the first leaf, in join order, that
// binds all of Vars, and otherwise just above the first join that does.
type Filter struct {
	Vars []string
	Pred Pred
}

// PreparedConj is a conjunctive plan with the statistics-free compilation
// work — filter placement and the greedy join order — done once and the
// base tuples left unbound. Callers that execute the same query shape
// repeatedly over changing relations (the Datalog engine's rules, across
// semi-naive rounds and Evaluate calls) prepare once and Bind fresh tuple
// slices per execution, skipping recompilation entirely. A PreparedConj
// is immutable after PrepareConj and safe for concurrent Bind calls.
type PreparedConj struct {
	output []string
	order  []int
	leaves []preparedLeaf
	post   [][]placed // post[k]: filters run just above the k-th join in order
	proj   []int      // output positions in the joined schema; nil when equal
}

// placed is one selection at its place in the plan: pred over the row
// values at pos.
type placed struct {
	pos  []int
	pred Pred
}

// preparedLeaf is the compiled shape of one atom: everything PrepareConj
// derives from its terms, minus the tuples.
type preparedLeaf struct {
	name     string
	schema   []string       // scan schema: vars when bind is nil, else $i
	sel      []placed       // over the scan row: constants, repeated variables, filters
	bind     []int          // each variable's first term position; nil if the terms are distinct variables
	vars     []string       // distinct variable names, first-occurrence order
	at       map[string]int // each variable's first term position
	hasConst bool
}

// PrepareConj compiles leaves, output and filters into a rebindable plan.
// The join order is chosen by the usual greedy heuristic using whatever
// tuple counts the leaves carry at prepare time (callers may pass empty
// Tuples; tie-breaks then fall back to leaf index) and is fixed for the
// lifetime of the PreparedConj — the heuristic's primary keys (shared
// bound variables, constant-bearing leaves) are statistics-free, which is
// what makes the cache sound.
func PrepareConj(leaves []Leaf, output []string, filters []Filter) (*PreparedConj, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("relalg: plan: no leaves")
	}
	pc := &PreparedConj{output: append([]string(nil), output...)}
	for i := range leaves {
		pc.leaves = append(pc.leaves, prepareLeaf(&leaves[i]))
	}
	pc.order = greedyOrder(leaves, pc.leaves)

	// The joined schema after each join is the left schema, then the new
	// leaf's variables not already in it, as streamNaturalJoin lays it
	// out: at is each variable's position, step the join that adds it.
	at, step := map[string]int{}, map[string]int{}
	var schema []string
	for k, i := range pc.order {
		for _, v := range pc.leaves[i].vars {
			if _, ok := at[v]; !ok {
				at[v], step[v] = len(schema), k
				schema = append(schema, v)
			}
		}
	}
	for _, v := range output {
		if _, ok := at[v]; !ok {
			return nil, fmt.Errorf("relalg: plan: output variable %q not bound by any leaf", v)
		}
	}
	pc.post = make([][]placed, len(pc.order))
	for _, f := range filters {
		for _, v := range f.Vars {
			if _, ok := at[v]; !ok {
				return nil, fmt.Errorf("relalg: plan: filter variable %q not bound by any leaf", v)
			}
		}
		pc.place(f, at, step)
	}
	if !slices.Equal(schema, output) {
		pc.proj = make([]int, len(output))
		for j, v := range output {
			pc.proj[j] = at[v]
		}
	}
	return pc, nil
}

// place puts f on the first leaf in join order that binds all its
// variables, or else just above the first join that does.
func (pc *PreparedConj) place(f Filter, at, step map[string]int) {
	for _, i := range pc.order {
		pl := &pc.leaves[i]
		if pos, ok := positions(pl.at, f.Vars); ok {
			pl.sel = append(pl.sel, placed{pos, f.Pred})
			return
		}
	}
	k := 0
	for _, v := range f.Vars {
		k = max(k, step[v])
	}
	pos, _ := positions(at, f.Vars)
	pc.post[k] = append(pc.post[k], placed{pos, f.Pred})
}

// positions looks up each of vars in at.
func positions(at map[string]int, vars []string) ([]int, bool) {
	pos := make([]int, len(vars))
	for j, v := range vars {
		p, ok := at[v]
		if !ok {
			return nil, false
		}
		pos[j] = p
	}
	return pos, true
}

// Bind attaches base tuples (one slice per leaf, in the original leaf
// order) to the prepared shape and returns the plan's output stream. When
// ops is non-nil, every scan, selection and join is counted, and its
// OpStat appended to *ops in pipeline order (explain).
func (pc *PreparedConj) Bind(tuples [][]Tuple, ops *[]*OpStat) (Iterator, error) {
	if len(tuples) != len(pc.leaves) {
		return nil, fmt.Errorf("relalg: bind: %d tuple slices for %d leaves", len(tuples), len(pc.leaves))
	}
	var root Iterator
	for k, i := range pc.order {
		pl := &pc.leaves[i]
		it := pl.bindTuples(tuples[i], ops)
		if k == 0 {
			root = it
			continue
		}
		root = count(ops, streamNaturalJoin(root, it), "join(⋈"+pl.name+")")
		if len(pc.post[k]) > 0 {
			root = count(ops, streamSelect(root, selection(pc.post[k])), "select(post-join)")
		}
	}
	if pc.proj != nil {
		root = StreamBind(root, pc.proj, pc.output)
	}
	mExecPlans.Inc()
	return root, nil
}

// count instruments it under label when ops is non-nil.
func count(ops *[]*OpStat, it Iterator, label string) Iterator {
	if ops == nil {
		return it
	}
	st := &OpStat{Label: label}
	*ops = append(*ops, st)
	return Instrument(it, st)
}

// selection conjoins placed selections into one predicate over a row.
// Each bound selection gets its own gather buffer, which is what keeps
// Bind safe to call concurrently.
func selection(sel []placed) Pred {
	n := 0
	for _, s := range sel {
		n = max(n, len(s.pos))
	}
	buf := make([]Val, n)
	return func(vals []Val) bool {
		for _, s := range sel {
			args := buf[:len(s.pos)]
			for j, p := range s.pos {
				args[j] = vals[p]
			}
			if !s.pred(args) {
				return false
			}
		}
		return true
	}
}

// prepareLeaf derives scan schema, selections and variable bind positions
// for one atom. Constants and repeated variables become selections on the
// raw scan, below every join.
func prepareLeaf(l *Leaf) preparedLeaf {
	pl := preparedLeaf{name: l.Name, at: map[string]int{}}
	bind := make([]int, 0, len(l.Terms)) // non-nil: an all-constant leaf binds nothing
	for i, t := range l.Terms {
		switch j, seen := pl.at[t.Var]; {
		case t.Var == "":
			c := t.Const
			pl.hasConst = true
			pl.sel = append(pl.sel, placed{[]int{i}, func(v []Val) bool { return compareVals(v[0], c) == 0 }})
		case seen:
			pl.sel = append(pl.sel, placed{[]int{j, i}, func(v []Val) bool { return compareVals(v[0], v[1]) == 0 }})
		default:
			pl.at[t.Var] = i
			pl.vars = append(pl.vars, t.Var)
			bind = append(bind, i)
		}
	}
	pl.schema = pl.vars
	if len(bind) < len(l.Terms) {
		pl.bind = bind
		pl.schema = make([]string, len(l.Terms))
		for i := range l.Terms {
			pl.schema[i] = fmt.Sprintf("$%d", i)
		}
	}
	return pl
}

// bindTuples builds scan → selection → bind for one prepared atom over
// fresh tuples. A leaf whose terms are distinct variables scans under
// their names and needs no bind.
func (pl *preparedLeaf) bindTuples(tuples []Tuple, ops *[]*OpStat) Iterator {
	it := count(ops, NewSliceScan(pl.name, pl.schema, tuples), "scan("+pl.name+")")
	if len(pl.sel) > 0 {
		it = count(ops, streamSelect(it, selection(pl.sel)), "select("+pl.name+")")
	}
	if pl.bind != nil {
		it = StreamBind(it, pl.bind, pl.vars)
	}
	return it
}

// greedyOrder picks the join order without statistics: start from the most
// selective leaf (constant-bearing first, then fewest base tuples), then
// repeatedly pick the leaf sharing the most already-bound variables —
// breaking ties by constant-bearing, then size, then leaf index — so hash
// joins stay keyed rather than degrading to cross products. Leaves sharing
// no variables are deferred until nothing connected remains.
func greedyOrder(leaves []Leaf, pls []preparedLeaf) []int {
	bound := map[string]bool{}
	shared := func(i int) int {
		s := 0
		for _, v := range pls[i].vars {
			if bound[v] {
				s++
			}
		}
		return s
	}
	better := func(a, b int) bool {
		if sa, sb := shared(a), shared(b); sa != sb {
			return sa > sb
		}
		if ca, cb := pls[a].hasConst, pls[b].hasConst; ca != cb {
			return ca
		}
		return len(leaves[a].Tuples) < len(leaves[b].Tuples)
	}
	order := make([]int, 0, len(leaves))
	done := make([]bool, len(leaves))
	for len(order) < len(leaves) {
		best := -1
		for i := range leaves {
			if !done[i] && (best < 0 || better(i, best)) {
				best = i
			}
		}
		order = append(order, best)
		done[best] = true
		for _, v := range pls[best].vars {
			bound[v] = true
		}
	}
	return order
}
