package pql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/provenance"
	"repro/internal/store"
)

// This file is the reference evaluator the streaming executor is compared
// against (equiv_test.go, FuzzPQLMatchesReference): the original eager
// path, moved here unchanged when Execute became the only executor in the
// package proper.

// ExecuteEager evaluates a parsed query on the original eager path:
// whole-table scans into row maps, then join/filter/project over
// materialized intermediates. Divergences from Execute, each of which
// FuzzPQLMatchesReference admits by name: ORDER BY here requires the sort
// column to be selected; unknown-column errors in WHERE surface per-row (so
// a short-circuited or row-free evaluation may not report them) instead of
// at compile time; and a table-qualified ON column the table does not have
// is not checked here (the join runs on an empty key and matches nothing)
// where Execute rejects it.
func ExecuteEager(s store.Store, q *Query) (*Result, error) {
	switch {
	case q.LineageOf != "":
		// Pushed-down closure: the backend answers the whole traversal in
		// O(hops) batch calls.
		ids, err := s.Closure(q.LineageOf, store.Up)
		if err != nil {
			return nil, err
		}
		return closureResult(s, ids)
	case q.DependsOf != "":
		ids, err := s.Closure(q.DependsOf, store.Down)
		if err != nil {
			return nil, err
		}
		return closureResult(s, ids)
	case q.Select != nil:
		return execSelect(s, q.Select)
	}
	return nil, fmt.Errorf("pql: empty query")
}

func execSelect(s store.Store, sel *SelectStmt) (*Result, error) {
	schema, ok := tableSchemas[sel.Table]
	if !ok {
		return nil, fmt.Errorf("pql: unknown table %q (have %s)", sel.Table, strings.Join(Tables(), ", "))
	}
	rows, err := scanTable(s, sel.Table, schema)
	if err != nil {
		return nil, err
	}
	addressable := append([]string(nil), schema...)

	if sel.Join != nil {
		rschema, ok := tableSchemas[sel.Join.Table]
		if !ok {
			return nil, fmt.Errorf("pql: unknown JOIN table %q", sel.Join.Table)
		}
		rrows, err := scanTable(s, sel.Join.Table, rschema)
		if err != nil {
			return nil, err
		}
		rows, addressable, err = equijoin(sel, schema, rows, rschema, rrows)
		if err != nil {
			return nil, err
		}
	}

	if sel.Count {
		n := 0
		for _, row := range rows {
			if sel.Where != nil {
				ok, err := sel.Where.(evaler).eval(row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			n++
		}
		return &Result{Columns: []string{"count"}, Rows: [][]string{{strconv.Itoa(n)}}}, nil
	}

	cols := sel.Columns
	if cols == nil {
		cols = addressable
	}
	colIdx := map[string]bool{}
	for _, c := range addressable {
		colIdx[c] = true
	}
	for _, c := range cols {
		if !colIdx[c] {
			return nil, fmt.Errorf("pql: no column %q (have %s)", c, strings.Join(addressable, ", "))
		}
	}

	res := &Result{Columns: cols}
	for _, row := range rows {
		if sel.Where != nil {
			ok, err := sel.Where.(evaler).eval(row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = row[c]
		}
		res.Rows = append(res.Rows, out)
	}
	if sel.OrderBy != "" {
		if !colIdx[sel.OrderBy] {
			return nil, fmt.Errorf("pql: ORDER BY column %q not in table %s", sel.OrderBy, sel.Table)
		}
		// Order on the full row map is gone; re-scan the order column from
		// the projected result when present, else sort by recomputing.
		oi := -1
		for i, c := range cols {
			if c == sel.OrderBy {
				oi = i
			}
		}
		if oi < 0 {
			return nil, fmt.Errorf("pql: ORDER BY column %q must be selected", sel.OrderBy)
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			less := compareLiteral(res.Rows[i][oi], res.Rows[j][oi]) < 0
			if sel.Desc {
				return !less
			}
			return less
		})
	}
	if sel.Limit > 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	return res, nil
}

// equijoin hash-joins the scanned rows of two tables on the ON columns.
// The joined rows carry qualified keys ("table.col") for every column plus
// bare keys where unambiguous; the addressable column list follows the
// same rule.
func equijoin(sel *SelectStmt, lschema []string, lrows []map[string]string,
	rschema []string, rrows []map[string]string) ([]map[string]string, []string, error) {

	lcount := map[string]int{}
	for _, c := range lschema {
		lcount[c]++
	}
	ambiguous := map[string]bool{}
	for _, c := range rschema {
		if lcount[c] > 0 {
			ambiguous[c] = true
		}
	}
	resolve := func(ref string) (table, col string, err error) {
		if i := strings.IndexByte(ref, '.'); i > 0 {
			table, col = strings.ToLower(ref[:i]), ref[i+1:]
			if table != sel.Table && table != sel.Join.Table {
				return "", "", fmt.Errorf("pql: ON references unknown table %q", table)
			}
			return table, col, nil
		}
		inL := lcount[ref] > 0
		inR := false
		for _, c := range rschema {
			if c == ref {
				inR = true
			}
		}
		switch {
		case inL && inR:
			return "", "", fmt.Errorf("pql: ON column %q is ambiguous; qualify it", ref)
		case inL:
			return sel.Table, ref, nil
		case inR:
			return sel.Join.Table, ref, nil
		}
		return "", "", fmt.Errorf("pql: ON column %q not found", ref)
	}
	lt, lc, err := resolve(sel.Join.Left)
	if err != nil {
		return nil, nil, err
	}
	rt, rc, err := resolve(sel.Join.Right)
	if err != nil {
		return nil, nil, err
	}
	if lt == rt {
		return nil, nil, fmt.Errorf("pql: ON must reference both tables")
	}
	if lt != sel.Table {
		lc, rc = rc, lc // normalize: lc belongs to the FROM table
	}

	index := map[string][]map[string]string{}
	for _, row := range rrows {
		index[row[rc]] = append(index[row[rc]], row)
	}
	var out []map[string]string
	for _, lrow := range lrows {
		for _, rrow := range index[lrow[lc]] {
			merged := make(map[string]string, len(lschema)+len(rschema))
			for _, c := range lschema {
				merged[sel.Table+"."+c] = lrow[c]
				if !ambiguous[c] {
					merged[c] = lrow[c]
				}
			}
			for _, c := range rschema {
				merged[sel.Join.Table+"."+c] = rrow[c]
				if !ambiguous[c] {
					merged[c] = rrow[c]
				}
			}
			out = append(out, merged)
		}
	}
	var addressable []string
	for _, c := range lschema {
		if !ambiguous[c] {
			addressable = append(addressable, c)
		}
		addressable = append(addressable, sel.Table+"."+c)
	}
	for _, c := range rschema {
		if !ambiguous[c] {
			addressable = append(addressable, c)
		}
		addressable = append(addressable, sel.Join.Table+"."+c)
	}
	return out, addressable, nil
}

// scanTable materializes the virtual table rows from the store's run logs.
func scanTable(s store.Store, table string, schema []string) ([]map[string]string, error) {
	var rows []map[string]string
	add := func(vals ...string) {
		row := make(map[string]string, len(schema))
		for i, c := range schema {
			row[c] = vals[i]
		}
		rows = append(rows, row)
	}
	err := s.ScanLogs(0, func(l *provenance.RunLog) error {
		switch table {
		case "runs":
			add(l.Run.ID, l.Run.WorkflowID, l.Run.WorkflowHash, l.Run.Agent, string(l.Run.Status))
		case "executions":
			for _, e := range l.Executions {
				add(e.ID, e.RunID, e.ModuleID, e.ModuleType, string(e.Status), strconv.FormatInt(e.WallNanos, 10))
			}
		case "artifacts":
			for _, a := range l.Artifacts {
				add(a.ID, a.RunID, a.Type, a.ContentHash, strconv.FormatInt(a.Size, 10))
			}
		case "uses":
			for _, ev := range l.Events {
				if ev.Kind == provenance.EventArtifactUsed {
					add(ev.ExecutionID, ev.ArtifactID, ev.Port)
				}
			}
		case "gens":
			for _, ev := range l.Events {
				if ev.Kind == provenance.EventArtifactGen {
					add(ev.ExecutionID, ev.ArtifactID, ev.Port)
				}
			}
		case "annotations":
			for _, an := range l.Annotations {
				add(an.Subject, an.Key, an.Value, an.Author)
			}
		}
		return nil
	})
	return rows, err
}

// evaler is what the reference evaluator needs of a WHERE expression; the
// eval methods left the Expr interface with the eager executor.
type evaler interface {
	eval(row map[string]string) (bool, error)
}

func (e *cmpExpr) eval(row map[string]string) (bool, error) {
	have, ok := row[e.col]
	if !ok {
		return false, fmt.Errorf("pql: unknown column %q in predicate", e.col)
	}
	switch e.op {
	case "=":
		return compareLiteral(have, e.val) == 0, nil
	case "!=":
		return compareLiteral(have, e.val) != 0, nil
	case "<":
		return compareLiteral(have, e.val) < 0, nil
	case ">":
		return compareLiteral(have, e.val) > 0, nil
	case "<=":
		return compareLiteral(have, e.val) <= 0, nil
	case ">=":
		return compareLiteral(have, e.val) >= 0, nil
	case "like":
		return matchLike(have, e.val), nil
	}
	return false, fmt.Errorf("pql: unknown operator %q", e.op)
}

func (e *binExpr) eval(row map[string]string) (bool, error) {
	l, err := e.l.(evaler).eval(row)
	if err != nil {
		return false, err
	}
	if e.op == "and" && !l {
		return false, nil
	}
	if e.op == "or" && l {
		return true, nil
	}
	return e.r.(evaler).eval(row)
}
