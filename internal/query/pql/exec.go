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

// num is a value as a comparison sees it: its text, and its float64 when
// the whole text parses as one.
type num struct {
	s  string
	f  float64
	ok bool
}

// numOf parses s once. Only a text whose first byte could start a float —
// a sign, a digit, '.', or the i or n of inf and nan — reaches
// strconv.ParseFloat, so an ID or a name costs no parse and no error value.
// A text ParseFloat refuses, out-of-range ones such as 1e400 included, is
// not a number.
func numOf(s string) num {
	n := num{s: s}
	if len(s) == 0 {
		return n
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		f, err := strconv.ParseFloat(s, 64)
		n.f, n.ok = f, err == nil
	}
	return n
}

// compareNums compares numerically when both sides are numbers,
// lexicographically otherwise.
func compareNums(a, b num) int {
	if a.ok && b.ok {
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
		return 0
	}
	return strings.Compare(a.s, b.s)
}

// The compareNums results a comparison operator accepts, one bit each.
const (
	below = 1 << iota
	equal
	above
)

var accepts = map[string]uint8{"=": equal, "!=": below | above, "<": below, ">": above, "<=": below | equal, ">=": above | equal}

// accepted reports whether mask holds the bit of comparison result c.
func accepted(mask uint8, c int) bool { return mask&(1<<(c+1)) != 0 }

// compileCmp compiles the test `cell op lit` of a WHERE comparison or
// LIKE. The literal is parsed here, once; against a literal that is no
// number every cell compares as text, unparsed.
func compileCmp(op, lit string) func(cell string) bool {
	mask, isCmp := accepts[op]
	if !isCmp {
		return func(cell string) bool { return matchLike(cell, lit) }
	}
	want := numOf(lit)
	if !want.ok {
		return func(cell string) bool { return accepted(mask, strings.Compare(cell, lit)) }
	}
	return func(cell string) bool { return accepted(mask, compareNums(numOf(cell), want)) }
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
