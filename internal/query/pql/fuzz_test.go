package pql

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// FuzzPQLMatchesReference feeds arbitrary bytes to the parser — it sees
// them straight off /v1/query — and, when they parse, runs the query on
// both executors over the equivalence store: no panic, the same answer, and
// the same verdict except where ExecuteEager's comment says the two differ.
// A streaming error must also be one the HTTP face can classify (the
// query's fault or an unknown entity), since this store never fails a read.
func FuzzPQLMatchesReference(f *testing.F) {
	for _, src := range equivQueries {
		f.Add(src)
	}
	for _, src := range invalidQueries {
		f.Add(src)
	}
	for _, src := range []string{
		"LINEAGE OF 'ghost'",
		"DEPENDENTS OF art-000001",
		"SELECT id FROM runs ORDER BY agent",
		"SELECT id FROM runs WHERE status = 'ok' OR ghost = '1'",
		"SELECT id FROM runs WHERE agent = 'O''Brien' AND (hash != '' OR id >= '1')",
		"SELECT * FROM runs JOIN executions ON runs.ghost = run",
		"SELECT COUNT(*) FROM runs ORDER BY ghost LIMIT 0",
		"select",
		"",
	} {
		f.Add(src)
	}
	s := equivStores(f)[0]
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		got, gerr := Execute(s, q)
		want, werr := ExecuteEager(s, q)
		if gerr != nil && !errors.Is(gerr, ErrInvalid) && !errors.Is(gerr, store.ErrNotFound) {
			t.Fatalf("%q: streaming error is neither the query's fault nor an unknown entity: %v", src, gerr)
		}
		switch {
		case gerr != nil && werr != nil:
		case gerr != nil:
			if !streamingOnlyError(gerr) {
				t.Fatalf("%q: streaming rejects (%v), eager accepts", src, gerr)
			}
		case werr != nil:
			if !strings.Contains(werr.Error(), "must be selected") {
				t.Fatalf("%q: eager rejects (%v), streaming accepts", src, werr)
			}
		case !reflect.DeepEqual(got.Columns, want.Columns) || !sameRows(got.Rows, want.Rows):
			t.Fatalf("%q:\nstreaming %v %v\n    eager %v %v", src, got.Columns, got.Rows, want.Columns, want.Rows)
		}
	})
}

// streamingOnlyError reports an error streaming raises at compile time
// where eager either waits for a row to reach the reference (WHERE) or
// never checks (a qualified ON column its table does not have).
func streamingOnlyError(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "in predicate") ||
		strings.HasPrefix(msg, "pql: ON column") && strings.Contains(msg, "not in table")
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
