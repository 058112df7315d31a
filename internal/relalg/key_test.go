package relalg

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// valueKey is vals' key as one string.
func valueKey(vals []Val) string { return string(appendKey(nil, vals)) }

// TestValueKeyEqualityMatchesFmt pins valueKey's equality to that of the
// key it replaced, fmt.Sprintf("%T\x01%v") per value joined by \x00: two
// value lists get equal keys exactly when those keys are equal, and a list
// of strings keeps that key's very bytes, which Datalog and standing
// queries join and dedup on.
func TestValueKeyEqualityMatchesFmt(t *testing.T) {
	fmtKey := func(vals []Val) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%T\x01%v", v, v)
		}
		return strings.Join(parts, "\x00")
	}
	lists := [][]Val{
		{}, {""}, {"", ""},
		{"1"}, {1}, {int64(1)}, {1.0}, {int(1), int64(1)}, {"1", 1},
		{true}, {"true"}, {false},
		{"a\x00b"}, {"a", "b"}, {"a\x00string\x01b"}, {"string\x01a"},
		{"float64\x011"}, {"int64\x01-7"}, {int64(-7)}, {-7},
		{int64(math.MinInt64)}, {math.MaxInt},
		{2.5}, {0.0}, {math.Copysign(0, -1)}, {1e21}, {1e-7}, {5e-324},
		{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {"NaN"},
		{int64(-7), 2.5, false, "x"}, {"x", int64(-7), 2.5, false},
		{uint8(1)}, {[]string{"a"}},
	}
	for _, a := range lists {
		for _, b := range lists {
			if got, want := valueKey(a) == valueKey(b), fmtKey(a) == fmtKey(b); got != want {
				t.Errorf("%#v and %#v: equal keys %v, fmt keys equal %v", a, b, got, want)
			}
		}
		strs := true
		for _, v := range a {
			_, ok := v.(string)
			strs = strs && ok
		}
		if strs && valueKey(a) != fmtKey(a) {
			t.Errorf("%#v: key %q, want %q", a, valueKey(a), fmtKey(a))
		}
	}
}
