package pql

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/store"
)

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]string
}

// String renders the result as aligned text.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for i, v := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// tableSchemas defines the virtual relational view of a provenance store:
// the tables of store.Rows, which the leaf scans read.
var tableSchemas = store.RowSchemas

// Tables lists the queryable virtual tables, sorted.
func Tables() []string {
	out := make([]string, 0, len(tableSchemas))
	for t := range tableSchemas {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ErrInvalid matches (errors.Is) every error Execute raises about the query
// itself — an unknown table or column, a bad ON reference — as opposed to
// one the store returned while answering it. All of them are raised before
// the store is read.
var ErrInvalid = errors.New("pql: invalid query")

type invalidError string

func (e invalidError) Error() string        { return string(e) }
func (e invalidError) Is(target error) bool { return target == ErrInvalid }

func invalidf(format string, args ...any) error {
	return invalidError(fmt.Sprintf(format, args...))
}

// Run parses and executes a PQL query against a store.
func Run(s store.Store, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Execute(s, q)
}

// Execute evaluates a parsed query on the streaming executor (stream.go):
// a SELECT compiled into relalg's conjunctive planner over sharded
// parallel leaf scans.
func Execute(s store.Store, q *Query) (*Result, error) {
	return executeWith(s, q, nil)
}

// closureResult renders a closure's members with their kind and detail.
// Entity records are fetched in one batch: a log-backed store reads each
// owning run once, however many members it holds.
func closureResult(s store.Store, ids []string) (*Result, error) {
	ents, err := s.Entities(ids)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"id", "kind", "detail"}, Rows: make([][]string, 0, len(ids))}
	for i, id := range ids {
		switch e := ents[i]; {
		case e.Artifact != nil:
			res.Rows = append(res.Rows, []string{id, "artifact", e.Artifact.Type})
		case e.Execution != nil:
			res.Rows = append(res.Rows, []string{id, "execution", e.Execution.ModuleID})
		default:
			res.Rows = append(res.Rows, []string{id, "unknown", ""})
		}
	}
	return res, nil
}

// compareLiteral compares numerically when both sides parse as numbers,
// lexicographically otherwise.
func compareLiteral(a, b string) int {
	fa, ea := strconv.ParseFloat(a, 64)
	fb, eb := strconv.ParseFloat(b, 64)
	if ea == nil && eb == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

// matchLike implements SQL LIKE with '%' wildcards (no '_' support).
func matchLike(s, pattern string) bool {
	parts := strings.Split(pattern, "%")
	if len(parts) == 1 {
		return s == pattern
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	middle := parts[1 : len(parts)-1]
	for _, m := range middle {
		if m == "" {
			continue
		}
		i := strings.Index(s, m)
		if i < 0 {
			return false
		}
		s = s[i+len(m):]
	}
	return strings.HasSuffix(s, last)
}
