package relalg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// randomRelation builds a relation over small value domains so joins,
// duplicate rows and witness-set merges actually happen.
func randomRelation(rng *rand.Rand, name string, ncols int) *Relation {
	schema := make([]string, ncols)
	for i := range schema {
		schema[i] = fmt.Sprintf("%s_c%d", name, i)
	}
	nrows := rng.Intn(12)
	rows := make([][]Val, nrows)
	for r := range rows {
		row := make([]Val, ncols)
		for c := range row {
			switch rng.Intn(3) {
			case 0:
				row[c] = fmt.Sprintf("v%d", rng.Intn(4))
			case 1:
				row[c] = int64(rng.Intn(4))
			default:
				row[c] = float64(rng.Intn(3))
			}
		}
		rows[r] = row
	}
	rel, err := NewRelation(name, schema, rows)
	if err != nil {
		panic(err)
	}
	return rel
}

// mustEqual fails unless the streaming result matches the eager reference
// on schema, tuple values in order, AND why-provenance witness sets.
func mustEqual(t *testing.T, op string, eager *Relation, it Iterator) {
	t.Helper()
	got, err := materialize(it, "stream")
	if err != nil {
		t.Fatalf("%s: materialize: %v", op, err)
	}
	if len(got.Schema) != len(eager.Schema) {
		t.Fatalf("%s: schema %v vs %v", op, got.Schema, eager.Schema)
	}
	for i := range got.Schema {
		if got.Schema[i] != eager.Schema[i] {
			t.Fatalf("%s: schema %v vs %v", op, got.Schema, eager.Schema)
		}
	}
	if len(got.Tuples) != len(eager.Tuples) {
		t.Fatalf("%s: %d tuples vs %d", op, len(got.Tuples), len(eager.Tuples))
	}
	for i := range got.Tuples {
		if valueKey(got.Tuples[i].Values) != valueKey(eager.Tuples[i].Values) {
			t.Fatalf("%s: tuple %d: %v vs %v", op, i, got.Tuples[i].Values, eager.Tuples[i].Values)
		}
		if wk := witnessSetKey(got.Tuples[i].Prov); wk != witnessSetKey(eager.Tuples[i].Prov) {
			t.Fatalf("%s: tuple %d provenance: %q vs %q", op, i,
				wk, witnessSetKey(eager.Tuples[i].Prov))
		}
	}
}

// mustEqualRel is mustEqual for a relation-at-a-time entry point: the
// relation it returns must also carry the reference's name.
func mustEqualRel(t *testing.T, op string, eager, got *Relation, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	if got.Name != eager.Name {
		t.Fatalf("%s: name %q vs %q", op, got.Name, eager.Name)
	}
	mustEqual(t, op, eager, newScan(got))
}

// witnessSetKey canonicalizes a witness set (order-independent).
func witnessSetKey(ws []Witness) string {
	keys := make([]string, len(ws))
	for i, w := range ws {
		keys[i] = w.normalize().key()
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestStreamingMatchesEagerOps is the randomized property test pinning
// every streaming operator to its eager reference (the ref* functions at
// the end of this file), and every relation-at-a-time entry point of
// operators.go to the same reference, result name included.
func TestStreamingMatchesEagerOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a := randomRelation(rng, "a", 2+rng.Intn(2))
		b := randomRelation(rng, "b", 2+rng.Intn(2))

		// Select on a random column against a random constant.
		ci := rng.Intn(len(a.Schema))
		want := Val(fmt.Sprintf("v%d", rng.Intn(4)))
		pred := func(vals []Val) bool { return compareVals(vals[ci], want) == 0 }
		esel := refSelect(a, pred)
		mustEqual(t, "select", esel, streamSelect(newScan(a), pred))
		mustEqualRel(t, "Select", esel, Select(a, pred), nil)

		// Project onto a random non-empty column subset (dups merge,
		// witnesses union).
		var cols []string
		for _, c := range a.Schema {
			if rng.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []string{a.Schema[0]}
		}
		ep, err := refProject(a, cols...)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := StreamProject(newScan(a), cols...)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "project", ep, sp)
		got, err := Project(a, cols...)
		mustEqualRel(t, "Project", ep, got, err)

		// Join on random columns (witness sets cross-merge).
		lj, rj := rng.Intn(len(a.Schema)), rng.Intn(len(b.Schema))
		ej, err := refJoin(a, b, a.Schema[lj], b.Schema[rj])
		if err != nil {
			t.Fatal(err)
		}
		sj, err := streamJoin(newScan(a), newScan(b), a.Schema[lj], b.Schema[rj], b.Name)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "join", ej, sj)
		got, err = Join(a, b, a.Schema[lj], b.Schema[rj])
		mustEqualRel(t, "Join", ej, got, err)

		// Union over two same-schema relations (value-equal tuples union
		// their witness sets).
		a2 := randomRelation(rng, "a", len(a.Schema))
		a2.Schema = append([]string(nil), a.Schema...)
		if err := a2.buildIndex(); err != nil {
			t.Fatal(err)
		}
		eu, err := refUnion(a, a2)
		if err != nil {
			t.Fatal(err)
		}
		su, err := streamUnion(newScan(a), newScan(a2))
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "union", eu, su)
		got, err = Union(a, a2)
		mustEqualRel(t, "Union", eu, got, err)

		// Semijoin against a random key set.
		keys := map[Val]bool{}
		for i := 0; i < 3; i++ {
			keys[fmt.Sprintf("v%d", rng.Intn(4))] = true
			keys[int64(rng.Intn(4))] = true
		}
		es, err := refSemijoin(a, a.Schema[ci], keys)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := StreamSemijoin(newScan(a), a.Schema[ci], keys)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "semijoin", es, ss)

		// Sort (stable, same comparator).
		eso, err := refSort(a, a.Schema[ci])
		if err != nil {
			t.Fatal(err)
		}
		sso, err := StreamSortBy(newScan(a), a.Schema[ci], func(x, y Val) bool { return compareVals(x, y) < 0 })
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "sort", eso, sso)

		// GroupBy count (always defined) on a random key column.
		eg, err := refGroupBy(a, a.Schema[ci], AggCount, "")
		if err != nil {
			t.Fatal(err)
		}
		sg, err := streamGroupBy(newScan(a), a.Schema[ci], AggCount, "")
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "groupby", eg, sg)
		got, err = GroupBy(a, a.Schema[ci], AggCount, "")
		mustEqualRel(t, "GroupBy", eg, got, err)
	}
}

// TestGroupByNumericAggregates covers the numeric folds separately, over
// all-numeric columns (sum/min/max/avg error on strings, as eager does).
func TestGroupByNumericAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		rows := make([][]Val, 1+rng.Intn(10))
		for i := range rows {
			rows[i] = []Val{fmt.Sprintf("k%d", rng.Intn(3)), int64(rng.Intn(10)), float64(rng.Intn(5))}
		}
		rel, err := NewRelation("m", []string{"k", "n", "f"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []AggFunc{AggSum, AggMin, AggMax, AggAvg} {
			for _, col := range []string{"n", "f"} {
				eg, err := refGroupBy(rel, "k", agg, col)
				if err != nil {
					t.Fatal(err)
				}
				sg, err := streamGroupBy(newScan(rel), "k", agg, col)
				if err != nil {
					t.Fatal(err)
				}
				mustEqual(t, string(agg)+"_"+col, eg, sg)
			}
		}
	}
}

// naiveConj enumerates a conjunctive query's answers by nested-loop
// binding, the planner's semantics oracle; the filters run on each
// complete binding, after the whole conjunction.
func naiveConj(leaves []Leaf, output []string, filters []Filter) [][]Val {
	var out [][]Val
	var step func(i int, bind map[string]Val)
	step = func(i int, bind map[string]Val) {
		if i == len(leaves) {
			for _, f := range filters {
				args := make([]Val, len(f.Vars))
				for j, v := range f.Vars {
					args[j] = bind[v]
				}
				if !f.Pred(args) {
					return
				}
			}
			row := make([]Val, len(output))
			for j, v := range output {
				row[j] = bind[v]
			}
			out = append(out, row)
			return
		}
		l := leaves[i]
	tuples:
		for _, t := range l.Tuples {
			nb := make(map[string]Val, len(bind))
			for k, v := range bind {
				nb[k] = v
			}
			for j, term := range l.Terms {
				if term.Var == "" {
					if compareVals(t.Values[j], term.Const) != 0 {
						continue tuples
					}
					continue
				}
				if have, ok := nb[term.Var]; ok {
					if compareVals(have, t.Values[j]) != 0 {
						continue tuples
					}
					continue
				}
				nb[term.Var] = t.Values[j]
			}
			step(i+1, nb)
		}
	}
	step(0, map[string]Val{})
	return out
}

// randomFilters draws up to two residual filters over bound variables:
// a variable differs from a constant, or two variables are ordered.
func randomFilters(rng *rand.Rand, bound []string) []Filter {
	var out []Filter
	for n := rng.Intn(3); n > 0; n-- {
		x := bound[rng.Intn(len(bound))]
		if rng.Intn(2) == 0 {
			c := Val(fmt.Sprintf("v%d", rng.Intn(4)))
			out = append(out, Filter{Vars: []string{x}, Pred: func(v []Val) bool { return compareVals(v[0], c) != 0 }})
			continue
		}
		y := bound[rng.Intn(len(bound))]
		out = append(out, Filter{Vars: []string{x, y}, Pred: func(v []Val) bool { return compareVals(v[0], v[1]) <= 0 }})
	}
	return out
}

// TestPlannerMatchesNaiveConj pins the greedy-ordered streaming plan,
// residual filters included, to nested-loop enumeration on randomized
// conjunctive queries: same answer bag regardless of the join order
// chosen and of where each filter runs.
func TestPlannerMatchesNaiveConj(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	varPool := []string{"X", "Y", "Z", "W"}
	for iter := 0; iter < 300; iter++ {
		nleaves := 1 + rng.Intn(3)
		leaves := make([]Leaf, nleaves)
		used := map[string]bool{}
		for i := range leaves {
			arity := 1 + rng.Intn(3)
			terms := make([]PlanTerm, arity)
			for j := range terms {
				if rng.Intn(4) == 0 {
					terms[j] = C(Val(fmt.Sprintf("v%d", rng.Intn(4))))
				} else {
					v := varPool[rng.Intn(len(varPool))]
					terms[j] = V(v)
					used[v] = true
				}
			}
			rel := randomRelation(rng, fmt.Sprintf("l%d", i), arity)
			leaves[i] = Leaf{Name: rel.Name, Terms: terms, Tuples: rel.Tuples}
		}
		var output []string
		for _, v := range varPool {
			if used[v] && rng.Intn(2) == 0 {
				output = append(output, v)
			}
		}
		if len(output) == 0 {
			for _, v := range varPool {
				if used[v] {
					output = append(output, v)
					break
				}
			}
		}
		if len(output) == 0 {
			continue // all-constant query; planner requires bound outputs
		}

		var bound []string
		for _, v := range varPool {
			if used[v] {
				bound = append(bound, v)
			}
		}
		filters := randomFilters(rng, bound)

		want := naiveConj(leaves, output, filters)
		pc, err := PrepareConj(leaves, output, filters)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		tuples := make([][]Tuple, len(leaves))
		for i := range leaves {
			tuples[i] = leaves[i].Tuples
		}
		plan, err := pc.Bind(tuples, nil)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		var got [][]Val
		err = Drain(plan, func(t *Tuple) error {
			got = append(got, append([]Val(nil), t.Values...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		wk := make([]string, len(want))
		for i, r := range want {
			wk[i] = valueKey(r)
		}
		gk := make([]string, len(got))
		for i, r := range got {
			gk[i] = valueKey(r)
		}
		sort.Strings(wk)
		sort.Strings(gk)
		if len(wk) != len(gk) {
			t.Fatalf("iter %d: %d rows vs %d", iter, len(gk), len(wk))
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Fatalf("iter %d: row %d differs: %q vs %q", iter, i, gk[i], wk[i])
			}
		}
	}
}

// TestPlannerFilterPlacement pins where residual filters run through
// Bind's operator counts: a filter over one leaf's variables on that
// leaf's scan, one spanning two leaves just above their join (not above a
// later one), and one naming a variable no leaf binds is refused at
// prepare.
func TestPlannerFilterPlacement(t *testing.T) {
	tup := func(vals ...Val) Tuple { return Tuple{Values: vals} }
	// Greedy order r, s, t: r is smallest, s shares Y with it.
	leaves := []Leaf{
		{Name: "r", Terms: []PlanTerm{V("X"), V("Y")}, Tuples: []Tuple{tup("a", "1"), tup("b", "2"), tup("c", "3")}},
		{Name: "s", Terms: []PlanTerm{V("Y"), V("Z")}, Tuples: []Tuple{tup("1", "a"), tup("2", "x"), tup("3", "c"), tup("3", "y")}},
		{Name: "t", Terms: []PlanTerm{V("Z"), V("W")}, Tuples: []Tuple{tup("a", "p"), tup("c", "q"), tup("c", "r"), tup("z", "s"), tup("y", "u")}},
	}
	ne := func(c Val) Pred { return func(v []Val) bool { return compareVals(v[0], c) != 0 } }
	filters := []Filter{
		{Vars: []string{"X"}, Pred: ne("b")},
		{Vars: []string{"Z", "X"}, Pred: func(v []Val) bool { return compareVals(v[0], v[1]) == 0 }},
	}
	pc, err := PrepareConj(leaves, []string{"X", "W"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	var ops []*OpStat
	it, err := pc.Bind([][]Tuple{leaves[0].Tuples, leaves[1].Tuples, leaves[2].Tuples}, &ops)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := Drain(it, func(t *Tuple) error { got = append(got, fmt.Sprint(t.Values)); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"[a p]", "[c q]", "[c r]"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	want := []OpStat{
		{Label: "scan(r)", Rows: 3},
		{Label: "select(r)", Rows: 2},
		{Label: "scan(s)", Rows: 4},
		{Label: "join(⋈s)", Rows: 3},
		{Label: "select(post-join)", Rows: 2},
		{Label: "scan(t)", Rows: 5},
		{Label: "join(⋈t)", Rows: 3},
	}
	if len(ops) != len(want) {
		t.Fatalf("%d operators, want %d: %v", len(ops), len(want), ops)
	}
	for i, op := range ops {
		if *op != want[i] {
			t.Errorf("operator %d: %s rows=%d, want %s rows=%d", i, op.Label, op.Rows, want[i].Label, want[i].Rows)
		}
	}

	_, err = PrepareConj(leaves, []string{"X"}, []Filter{{Vars: []string{"X", "V"}, Pred: ne("a")}})
	if err == nil || err.Error() != `relalg: plan: filter variable "V" not bound by any leaf` {
		t.Fatalf("unbound filter variable: err %v", err)
	}
}

// --- eager reference operators ------------------------------------------------
//
// The original relation-at-a-time operator bodies, moved here unchanged
// when operators.go became materialize over the streaming operators. They
// share no loop with iter.go, which is what makes the comparison above
// mean something.

// refSelect returns the tuples satisfying pred. Witnesses pass through
// unchanged: selection does not combine tuples.
func refSelect(r *Relation, pred Pred) *Relation {
	out := derived("σ("+r.Name+")", r.Schema)
	for _, t := range r.Tuples {
		if pred(t.Values) {
			out.Tuples = append(out.Tuples, Tuple{
				Values: append([]Val(nil), t.Values...),
				Prov:   cloneWitnesses(t.Prov),
			})
		}
	}
	return out
}

// refProject keeps the named columns, eliminating duplicate rows set-style;
// the witnesses of merged duplicates are unioned (alternative
// justifications).
func refProject(r *Relation, cols ...string) (*Relation, error) {
	idx := make([]int, len(cols))
	for j, c := range cols {
		i, err := r.Col(c)
		if err != nil {
			return nil, err
		}
		idx[j] = i
	}
	out := derived("π("+r.Name+")", cols)
	byKey := map[string]int{}
	for _, t := range r.Tuples {
		vals := make([]Val, len(idx))
		for j, i := range idx {
			vals[j] = t.Values[i]
		}
		k := valueKey(vals)
		if at, ok := byKey[k]; ok {
			out.Tuples[at].Prov = unionWitnessSets(out.Tuples[at].Prov, t.Prov)
			continue
		}
		byKey[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, Tuple{Values: vals, Prov: cloneWitnesses(t.Prov)})
	}
	return out, nil
}

// refSemijoin returns the tuples of r whose col value is a member of keys
// (r ⋉ keys): one scan answers membership for an entire key set, where
// repeated Select/Eq calls would scan once per key. Witnesses pass
// through unchanged, as in Select. This is the algebra-level form of the
// plan the survey's relational backend runs for frontier expansion; its
// hot path (survey.RelStore.Expand in internal/experiments) evaluates the
// same semijoin inline over its base rows to avoid materializing tuples
// and witness sets per hop.
func refSemijoin(r *Relation, col string, keys map[Val]bool) (*Relation, error) {
	i, err := r.Col(col)
	if err != nil {
		return nil, err
	}
	out := derived("("+r.Name+"⋉)", r.Schema)
	for _, t := range r.Tuples {
		if keys[t.Values[i]] {
			out.Tuples = append(out.Tuples, Tuple{
				Values: append([]Val(nil), t.Values...),
				Prov:   cloneWitnesses(t.Prov),
			})
		}
	}
	return out, nil
}

// refJoin computes the natural equijoin on leftCol = rightCol. The output
// schema is left's columns followed by right's (right's join column
// prefixed with the relation name on collision). Witness sets of joined
// tuples are cross-merged: a joined tuple is justified by one witness from
// each side.
func refJoin(l, r *Relation, leftCol, rightCol string) (*Relation, error) {
	li, err := l.Col(leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := r.Col(rightCol)
	if err != nil {
		return nil, err
	}
	schema := append([]string(nil), l.Schema...)
	used := map[string]bool{}
	for _, c := range schema {
		used[c] = true
	}
	rightMap := make([]string, len(r.Schema))
	for i, c := range r.Schema {
		name := c
		if used[name] {
			name = r.Name + "." + c
		}
		if used[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		used[name] = true
		rightMap[i] = name
	}
	schema = append(schema, rightMap...)
	out := derived("("+l.Name+"⋈"+r.Name+")", schema)

	// Hash join on the right side.
	index := map[string][]int{}
	for i, t := range r.Tuples {
		k := valueKey([]Val{t.Values[ri]})
		index[k] = append(index[k], i)
	}
	for _, lt := range l.Tuples {
		k := valueKey([]Val{lt.Values[li]})
		for _, i := range index[k] {
			rt := r.Tuples[i]
			vals := make([]Val, 0, len(lt.Values)+len(rt.Values))
			vals = append(vals, lt.Values...)
			vals = append(vals, rt.Values...)
			out.Tuples = append(out.Tuples, Tuple{
				Values: vals,
				Prov:   mergeWitnessSets(lt.Prov, rt.Prov),
			})
		}
	}
	return out, nil
}

// refUnion computes set union of two relations with identical schemas,
// unioning witness sets of value-equal tuples.
func refUnion(a, b *Relation) (*Relation, error) {
	if err := schemaNamesEqual(a.Schema, b.Schema); err != nil {
		return nil, err
	}
	out := derived("("+a.Name+"∪"+b.Name+")", a.Schema)
	byKey := map[string]int{}
	add := func(t Tuple) {
		k := valueKey(t.Values)
		if at, ok := byKey[k]; ok {
			out.Tuples[at].Prov = unionWitnessSets(out.Tuples[at].Prov, t.Prov)
			return
		}
		byKey[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, Tuple{
			Values: append([]Val(nil), t.Values...),
			Prov:   cloneWitnesses(t.Prov),
		})
	}
	for _, t := range a.Tuples {
		add(t)
	}
	for _, t := range b.Tuples {
		add(t)
	}
	return out, nil
}

// refGroupBy groups by a key column and aggregates another. The output schema
// is [key, agg(col)]; each group's provenance is the union of its members'
// witnesses (every contributing tuple is part of why).
func refGroupBy(r *Relation, keyCol string, agg AggFunc, aggCol string) (*Relation, error) {
	ki, err := r.Col(keyCol)
	if err != nil {
		return nil, err
	}
	ai := -1
	if agg != AggCount {
		ai, err = r.Col(aggCol)
		if err != nil {
			return nil, err
		}
	}
	type group struct {
		key    Val
		count  int64
		sum    float64
		min    float64
		max    float64
		first  bool
		prov   []Witness
		keyStr string
	}
	groups := map[string]*group{}
	var order []string
	for _, t := range r.Tuples {
		k := valueKey([]Val{t.Values[ki]})
		g, ok := groups[k]
		if !ok {
			g = &group{key: t.Values[ki], first: true, keyStr: k}
			groups[k] = g
			order = append(order, k)
		}
		g.count++
		if ai >= 0 {
			f, err := toFloat(t.Values[ai])
			if err != nil {
				return nil, fmt.Errorf("relalg: groupby %s: %w", agg, err)
			}
			g.sum += f
			if g.first || f < g.min {
				g.min = f
			}
			if g.first || f > g.max {
				g.max = f
			}
			g.first = false
		}
		g.prov = unionWitnessSets(g.prov, t.Prov)
	}
	sort.Strings(order)
	outCol := string(agg)
	if aggCol != "" {
		outCol = string(agg) + "_" + aggCol
	}
	out := derived("γ("+r.Name+")", []string{keyCol, outCol})
	for _, k := range order {
		g := groups[k]
		var v Val
		switch agg {
		case AggCount:
			v = g.count
		case AggSum:
			v = g.sum
		case AggMin:
			v = g.min
		case AggMax:
			v = g.max
		case AggAvg:
			v = g.sum / float64(g.count)
		default:
			return nil, fmt.Errorf("relalg: unknown aggregate %q", agg)
		}
		out.Tuples = append(out.Tuples, Tuple{Values: []Val{g.key, v}, Prov: g.prov})
	}
	return out, nil
}

// refSort returns a copy ordered by the named column ascending.
func refSort(r *Relation, col string) (*Relation, error) {
	i, err := r.Col(col)
	if err != nil {
		return nil, err
	}
	out := derived(r.Name, r.Schema)
	out.Name = r.Name
	out.Tuples = make([]Tuple, len(r.Tuples))
	for j, t := range r.Tuples {
		out.Tuples[j] = Tuple{Values: append([]Val(nil), t.Values...), Prov: cloneWitnesses(t.Prov)}
	}
	sort.SliceStable(out.Tuples, func(a, b int) bool {
		return compareVals(out.Tuples[a].Values[i], out.Tuples[b].Values[i]) < 0
	})
	return out, nil
}
