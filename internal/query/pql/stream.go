package pql

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/query/scan"
	"repro/internal/relalg"
	"repro/internal/store"
)

// This file is the streaming SELECT executor: it compiles a parsed
// SelectStmt into the shared conjunctive planner (relalg.PrepareConj) —
// one leaf per table with every column a variable, the JOIN's ON column
// sharing the FROM column's variable, and each top-level WHERE conjunct a
// residual filter, which the planner runs on the one table it touches or
// just above the join — and puts COUNT, ORDER BY, LIMIT and the
// projection above the plan. Virtual-table rows are flat []Val tuples (one
// small slice per row instead of a map with qualified and bare keys), the
// sort key is carried through the pipeline so ORDER BY works on any
// addressable column, not just selected ones, and leaf scans go through
// internal/query/scan, which fans out across shards in parallel on a
// sharded store. A conjunct's literal is parsed when it is compiled
// (compileCmp), an ORDER BY value once per tuple, and a cell only when
// its first byte could start a number (numOf). The plan is prepared
// before the scan, so every validation error — unknown table or column,
// bad ON reference — is raised before the first leaf scan and a query
// that fails validation reads nothing; with no tuple counts at prepare
// time the planner keeps the text order (the FROM table probes, the JOIN
// table builds). No WHERE conjunct becomes a constant term: PQL's =
// compares numerically (compareNums), the planner's constants match
// exactly. The eager evaluator this replaced is the in-package test
// reference (reference_test.go).

// Explain reports how a streaming query ran: the join roles chosen, every
// operator's emitted-row count, the parallel scan width, and bytes
// allocated during execution.
type Explain struct {
	JoinOrder  []string // probe table first, then build tables
	Ops        []*relalg.OpStat
	Shards     int    // shards scanned in parallel; 0 = unsharded store
	AllocBytes uint64 // heap bytes allocated while executing
}

// String renders the explain report.
func (e *Explain) String() string {
	var b strings.Builder
	if len(e.JoinOrder) > 1 {
		fmt.Fprintf(&b, "join order: %s (probe) ⋈ %s (build)\n",
			e.JoinOrder[0], strings.Join(e.JoinOrder[1:], " ⋈ "))
	} else if len(e.JoinOrder) == 1 {
		fmt.Fprintf(&b, "scan: %s\n", e.JoinOrder[0])
	}
	if e.Shards > 1 {
		fmt.Fprintf(&b, "parallel leaf scan: %d shards\n", e.Shards)
	}
	for _, op := range e.Ops {
		fmt.Fprintf(&b, "  %-40s rows=%d\n", op.Label, op.Rows)
	}
	if e.AllocBytes > 0 {
		fmt.Fprintf(&b, "allocated: %d bytes\n", e.AllocBytes)
	}
	return b.String()
}

// ExecuteExplain evaluates a parsed query on the streaming path and
// returns the executed plan's counters alongside the result.
func ExecuteExplain(s store.Store, q *Query) (*Result, *Explain, error) {
	ex := &Explain{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := executeWith(s, q, ex)
	runtime.ReadMemStats(&after)
	ex.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, nil, err
	}
	return res, ex, nil
}

func executeWith(s store.Store, q *Query, ex *Explain) (*Result, error) {
	switch {
	case q.LineageOf != "":
		ids, err := s.Closure(q.LineageOf, store.Up)
		if err != nil {
			return nil, err
		}
		if ex != nil {
			ex.JoinOrder = []string{"closure↑"}
		}
		return closureResult(s, ids)
	case q.DependsOf != "":
		ids, err := s.Closure(q.DependsOf, store.Down)
		if err != nil {
			return nil, err
		}
		if ex != nil {
			ex.JoinOrder = []string{"closure↓"}
		}
		return closureResult(s, ids)
	case q.Select != nil:
		return execSelectStream(s, q.Select, ex)
	}
	return nil, invalidf("pql: empty query")
}

// execSelectStream compiles and runs one SELECT.
func execSelectStream(s store.Store, sel *SelectStmt, ex *Explain) (*Result, error) {
	lschema, ok := tableSchemas[sel.Table]
	if !ok {
		return nil, invalidf("pql: unknown table %q (have %s)", sel.Table, strings.Join(Tables(), ", "))
	}
	tables := []string{sel.Table}
	var rschema []string
	if sel.Join != nil {
		rschema, ok = tableSchemas[sel.Join.Table]
		if !ok {
			return nil, invalidf("pql: unknown JOIN table %q", sel.Join.Table)
		}
		tables = append(tables, sel.Join.Table)
	}

	// Column addressing: physical columns are qualified when a join is
	// present; addrIdx maps every addressable reference (bare when
	// unambiguous, plus qualified forms) to its physical position, and
	// addressable lists them in SELECT * order.
	var physSchema, addressable []string
	addrIdx := map[string]int{}
	if sel.Join == nil {
		physSchema = lschema
		addressable = lschema
		for i, c := range lschema {
			addrIdx[c] = i
		}
	} else {
		ambiguous := map[string]bool{}
		for _, lc := range lschema {
			for _, rc := range rschema {
				if lc == rc {
					ambiguous[lc] = true
				}
			}
		}
		for t, schema := range [][]string{lschema, rschema} {
			for _, c := range schema {
				q := tables[t] + "." + c
				addrIdx[q] = len(physSchema)
				if !ambiguous[c] {
					addrIdx[c] = len(physSchema)
					addressable = append(addressable, c)
				}
				addressable = append(addressable, q)
				physSchema = append(physSchema, q)
			}
		}
	}

	// Every column a WHERE names resolves here, so an unknown one is an
	// error whether or not any row would reach it.
	var conjuncts []Expr
	if sel.Where != nil {
		conjuncts = splitAnd(sel.Where)
		for _, c := range conjuncts {
			for _, col := range columns(c) {
				if _, ok := addrIdx[col]; !ok {
					return nil, invalidf("pql: unknown column %q in predicate", col)
				}
			}
		}
	}

	// Plan variables: each physical column is its own variable, except the
	// JOIN table's ON column, which takes the FROM column's variable — the
	// join key. The output is every distinct variable in column order,
	// which is the joined schema of the text-order plan.
	vars := append([]string(nil), physSchema...)
	leaves := []relalg.Leaf{{Name: sel.Table, Terms: terms(vars[:len(lschema)])}}
	output := vars
	if sel.Join != nil {
		lc, rc, err := resolveOn(sel, lschema, rschema)
		if err != nil {
			return nil, err
		}
		ri := len(lschema) + indexOf(rschema, rc)
		vars[ri] = vars[indexOf(lschema, lc)]
		leaves = append(leaves, relalg.Leaf{Name: sel.Join.Table, Terms: terms(vars[len(lschema):])})
		output = append(append([]string(nil), vars[:ri]...), vars[ri+1:]...)
	}
	varOf := func(col string) string { return vars[addrIdx[col]] }

	// ORDER BY and SELECT columns resolve here, with the rest of validation,
	// so a query naming a column that does not exist scans nothing.
	var cols []string
	var idx []int
	if !sel.Count {
		if sel.OrderBy != "" {
			if _, ok := addrIdx[sel.OrderBy]; !ok {
				return nil, invalidf("pql: ORDER BY column %q not in table %s", sel.OrderBy, sel.Table)
			}
		}
		cols = sel.Columns
		if cols == nil {
			cols = addressable
		}
		idx = make([]int, len(cols))
		for i, c := range cols {
			if _, ok := addrIdx[c]; !ok {
				return nil, invalidf("pql: no column %q (have %s)", c, strings.Join(addressable, ", "))
			}
			idx[i] = indexOf(output, varOf(c))
		}
	}

	filters := make([]relalg.Filter, len(conjuncts))
	for i, c := range conjuncts {
		for _, col := range columns(c) {
			filters[i].Vars = append(filters[i].Vars, varOf(col))
		}
		filters[i].Pred = compilePred(c, new(int))
	}
	pc, err := relalg.PrepareConj(leaves, output, filters)
	if err != nil {
		return nil, err
	}

	// Leaf scans: one pass over the run logs fills every needed table.
	scanned, shards, err := scanLeaves(s, tables)
	if err != nil {
		return nil, err
	}
	tuples := make([][]relalg.Tuple, len(tables))
	for i, t := range tables {
		tuples[i] = scanned[t]
	}
	var ops *[]*relalg.OpStat
	if ex != nil {
		ex.Shards = shards
		ex.JoinOrder = tables
		ops = &ex.Ops
	}
	it, err := pc.Bind(tuples, ops)
	if err != nil {
		return nil, err
	}
	wrap := func(it relalg.Iterator, label string) relalg.Iterator {
		if ex == nil {
			return it
		}
		st := &relalg.OpStat{Label: label}
		ex.Ops = append(ex.Ops, st)
		return relalg.Instrument(it, st)
	}

	if sel.Count {
		n := 0
		if err := relalg.Drain(it, func(*relalg.Tuple) error { n++; return nil }); err != nil {
			return nil, err
		}
		return &Result{Columns: []string{"count"}, Rows: [][]string{{strconv.Itoa(n)}}}, nil
	}

	// ORDER BY runs before projection, carrying the sort key through the
	// pipeline: any addressable column works, selected or not.
	if sel.OrderBy != "" {
		desc := sel.Desc
		key := func(v relalg.Val) num { return numOf(v.(string)) }
		sit, err := relalg.StreamSortByKey(it, varOf(sel.OrderBy), key, func(a, b num) bool {
			less := compareNums(a, b) < 0
			if desc {
				return !less
			}
			return less
		})
		if err != nil {
			return nil, err
		}
		it = wrap(sit, "sort("+sel.OrderBy+")")
	}
	if sel.Limit > 0 {
		it = wrap(relalg.StreamLimit(it, sel.Limit), fmt.Sprintf("limit(%d)", sel.Limit))
	}

	it = wrap(relalg.StreamBind(it, idx, cols), "project("+strings.Join(cols, ",")+")")

	res := &Result{Columns: append([]string(nil), cols...)}
	err = relalg.Drain(it, func(t *relalg.Tuple) error {
		row := make([]string, len(t.Values))
		for i, v := range t.Values {
			row[i] = v.(string)
		}
		res.Rows = append(res.Rows, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// terms makes one variable term per name: a table leaf.
func terms(vars []string) []relalg.PlanTerm {
	out := make([]relalg.PlanTerm, len(vars))
	for i, v := range vars {
		out[i] = relalg.V(v)
	}
	return out
}

// resolveOn resolves the ON references (bare when unambiguous, or
// table-qualified; one per table) and returns the join columns normalized
// so the first belongs to the FROM table.
func resolveOn(sel *SelectStmt, lschema, rschema []string) (lc, rc string, err error) {
	lcount := map[string]int{}
	for _, c := range lschema {
		lcount[c]++
	}
	resolve := func(ref string) (table, col string, err error) {
		if i := strings.IndexByte(ref, '.'); i > 0 {
			table, col = strings.ToLower(ref[:i]), ref[i+1:]
			if table != sel.Table && table != sel.Join.Table {
				return "", "", invalidf("pql: ON references unknown table %q", table)
			}
			return table, col, nil
		}
		inL := lcount[ref] > 0
		inR := indexOf(rschema, ref) >= 0
		switch {
		case inL && inR:
			return "", "", invalidf("pql: ON column %q is ambiguous; qualify it", ref)
		case inL:
			return sel.Table, ref, nil
		case inR:
			return sel.Join.Table, ref, nil
		}
		return "", "", invalidf("pql: ON column %q not found", ref)
	}
	lt, lcol, err := resolve(sel.Join.Left)
	if err != nil {
		return "", "", err
	}
	rt, rcol, err := resolve(sel.Join.Right)
	if err != nil {
		return "", "", err
	}
	if lt == rt {
		return "", "", invalidf("pql: ON must reference both tables")
	}
	if lt != sel.Table {
		lcol, rcol = rcol, lcol
	}
	if indexOf(lschema, lcol) < 0 {
		return "", "", invalidf("pql: ON column %q not in table %s", lcol, sel.Table)
	}
	if indexOf(rschema, rcol) < 0 {
		return "", "", invalidf("pql: ON column %q not in table %s", rcol, sel.Join.Table)
	}
	return lcol, rcol, nil
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

// splitAnd flattens the top-level AND spine of an expression.
func splitAnd(e Expr) []Expr {
	if b, ok := e.(*binExpr); ok && b.op == "and" {
		return append(splitAnd(b.l), splitAnd(b.r)...)
	}
	return []Expr{e}
}

// columns lists the columns an expression references, left to right.
func columns(e Expr) []string {
	if b, ok := e.(*binExpr); ok {
		return append(columns(b.l), columns(b.r)...)
	}
	return []string{e.(*cmpExpr).col}
}

// compilePred compiles an expression into a closure over a filter's
// values: the k-th column reference, left to right as columns lists them,
// reads vals[k]; next counts the references compiled so far. Every
// operator is one the parser accepts, and each comparison's literal is
// parsed here, once (compileCmp).
func compilePred(e Expr, next *int) relalg.Pred {
	if x, ok := e.(*binExpr); ok {
		l := compilePred(x.l, next)
		r := compilePred(x.r, next)
		if x.op == "and" {
			return func(vals []relalg.Val) bool { return l(vals) && r(vals) }
		}
		return func(vals []relalg.Val) bool { return l(vals) || r(vals) }
	}
	x := e.(*cmpExpr)
	i, test := *next, compileCmp(x.op, x.val)
	*next++
	return func(vals []relalg.Val) bool { return test(vals[i].(string)) }
}

// scanLeaves fills the requested virtual tables in ONE pass over the
// store's rows (parallel across shards on a sharded store, from the row
// image on a file store), producing flat value tuples.
func scanLeaves(s store.Store, tables []string) (map[string][]relalg.Tuple, int, error) {
	out := make(map[string][]relalg.Tuple, len(tables))
	want := map[string]bool{}
	for _, t := range tables {
		want[t] = true
		out[t] = nil
	}
	add := func(table string, vals ...string) {
		vs := make([]relalg.Val, len(vals))
		for i, v := range vals {
			vs[i] = v
		}
		out[table] = append(out[table], relalg.Tuple{Values: vs})
	}
	shards, err := scan.ShardedRows(s, func(r *store.RunRows) error {
		if want["runs"] {
			add("runs", r.Run.ID, r.Run.Workflow, r.Run.Hash, r.Run.Agent, r.Run.Status)
		}
		if want["executions"] {
			for _, e := range r.Executions {
				add("executions", e.ID, e.Run, e.Module, e.ModuleType, e.Status, strconv.FormatInt(e.WallNanos, 10))
			}
		}
		if want["artifacts"] {
			for _, a := range r.Artifacts {
				add("artifacts", a.ID, a.Run, a.Type, a.ContentHash, strconv.FormatInt(a.Size, 10))
			}
		}
		if want["uses"] || want["gens"] {
			for _, e := range r.Edges {
				if e.Gen && want["gens"] {
					add("gens", e.Exec, e.Artifact, e.Port)
				}
				if !e.Gen && want["uses"] {
					add("uses", e.Exec, e.Artifact, e.Port)
				}
			}
		}
		if want["annotations"] {
			for _, an := range r.Annotations {
				add("annotations", an.Subject, an.Key, an.Value, an.Author)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, shards, nil
}
