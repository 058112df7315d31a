package pql

import (
	"strconv"
	"strings"
	"testing"
)

// compareLiteral is the definition of PQL's comparison, parsing both sides
// on every call: numeric when both parse as numbers, lexicographic
// otherwise. The executor's compiled tests (compileCmp) and ORDER BY keys
// (numOf, compareNums) must agree with it; the reference evaluator
// (reference_test.go) compares with it, so FuzzPQLMatchesReference holds
// whole queries to it as well.
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

// FuzzCompareLiteral holds the compiled comparison of a cell with a literal,
// for every operator, and the ORDER BY order of two values to
// compareLiteral.
func FuzzCompareLiteral(f *testing.F) {
	seeds := []string{"NaN", "-Infinity", "0x1p-2", "1_0", "1e400", "", " 1", "+.5", ".", "10", "9", "inf", "-0", "id-1"}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, cell, lit string) {
		c := compareLiteral(cell, lit)
		for op, want := range map[string]bool{"=": c == 0, "!=": c != 0, "<": c < 0, ">": c > 0, "<=": c <= 0, ">=": c >= 0} {
			if got := compileCmp(op, lit)(cell); got != want {
				t.Fatalf("%q %s %q: compiled test says %v, compareLiteral %d", cell, op, lit, got, c)
			}
		}
		if got := compareNums(numOf(cell), numOf(lit)); got != c {
			t.Fatalf("ORDER BY compares %q with %q as %d, compareLiteral as %d", cell, lit, got, c)
		}
	})
}
