package pql_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/query/pql"
	"repro/internal/relalg"
	"repro/internal/store"
)

// e17Store is experiment E17's store: 64 synthetic runs of six executions.
func e17Store(t testing.TB, s store.Store) store.Store {
	t.Helper()
	for i := 0; i < 64; i++ {
		if err := s.PutRunLog(experiments.E17SynthLog(i, 6)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func e17Battery(t testing.TB) []*pql.Query {
	t.Helper()
	qs := make([]*pql.Query, len(experiments.E17Queries))
	for i, src := range experiments.E17Queries {
		q, err := pql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		qs[i] = q
	}
	return qs
}

// TestE17PlanShape pins the executed plan of every E17 query by its exact
// per-operator row counts. Each WHERE touches one table, so its selection
// must sit on that table's scan, below the join, and the join must see the
// filtered leaf: a planner that stops pushing selections down emits a
// select(post-join) operator and a join over full leaves, and fails here
// rather than in a wall-clock ratio. (Query 0 compares status with 'fail';
// the stored value is 'failed', so its selection passes nothing.)
func TestE17PlanShape(t *testing.T) {
	want := [][]relalg.OpStat{
		{
			{Label: "scan(executions)", Rows: 384},
			{Label: "select(executions)", Rows: 0},
			{Label: "scan(gens)", Rows: 384},
			{Label: "join(⋈gens)", Rows: 0},
			{Label: "sort(artifact)", Rows: 0},
			{Label: "project(module,artifact)", Rows: 0},
		},
		{
			{Label: "scan(gens)", Rows: 384},
			{Label: "scan(artifacts)", Rows: 448},
			{Label: "select(artifacts)", Rows: 64},
			{Label: "join(⋈artifacts)", Rows: 64},
			{Label: "sort(exec)", Rows: 64},
			{Label: "project(exec,type)", Rows: 64},
		},
		{
			{Label: "scan(runs)", Rows: 64},
			{Label: "scan(executions)", Rows: 384},
			{Label: "select(executions)", Rows: 64},
			{Label: "join(⋈executions)", Rows: 64},
			{Label: "sort(module)", Rows: 50}, // the limit stops pulling
			{Label: "limit(50)", Rows: 50},
			{Label: "project(workflow,module)", Rows: 50},
		},
		{
			{Label: "scan(executions)", Rows: 384},
			{Label: "select(executions)", Rows: 360},
			{Label: "scan(uses)", Rows: 384},
			{Label: "join(⋈uses)", Rows: 360},
		},
	}
	mem := e17Store(t, store.NewMemStore())
	for i, q := range e17Battery(t) {
		_, ex, err := pql.ExecuteExplain(mem, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(ex.Ops) != len(want[i]) {
			t.Fatalf("query %d: %d operators, want %d:\n%s", i, len(ex.Ops), len(want[i]), ex)
		}
		joined := false
		for j, op := range ex.Ops {
			if *op != want[i][j] {
				t.Errorf("query %d operator %d: %s rows=%d, want %s rows=%d",
					i, j, op.Label, op.Rows, want[i][j].Label, want[i][j].Rows)
			}
			joined = joined || strings.HasPrefix(op.Label, "join(")
			if joined && strings.HasPrefix(op.Label, "select(") {
				t.Errorf("query %d: %s runs above the join", i, op.Label)
			}
		}
	}
}

// TestE17BatteryAllocCeiling bounds what one pass of the E17 battery
// allocates on a MemStore: 1.54 MB when the eager executor was retired,
// ceiling 1.5× that. Materializing a joined intermediate or going back to
// one map per row roughly triples it.
func TestE17BatteryAllocCeiling(t *testing.T) {
	const ceiling = 2_310_000
	mem := e17Store(t, store.NewMemStore())
	qs := e17Battery(t)
	battery := func() {
		for _, q := range qs {
			if _, err := pql.Execute(mem, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	battery()
	const passes = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < passes; i++ {
		battery()
	}
	runtime.ReadMemStats(&m1)
	if got := (m1.TotalAlloc - m0.TotalAlloc) / passes; got > ceiling {
		t.Fatalf("battery allocates %d bytes, ceiling %d", got, ceiling)
	} else {
		t.Logf("battery allocates %d bytes (ceiling %d)", got, ceiling)
	}
}

// TestValidationReadsNothing: a query that names a column that does not
// exist fails before the leaf scan — the file store decodes no record for
// it — and says what it always said.
func TestValidationReadsNothing(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e17Store(t, fs)
	scanned := obs.Default().Counter("prov_store_scan_records_total", "")

	before := scanned.Value()
	if _, err := pql.Run(fs, "SELECT id FROM executions ORDER BY id LIMIT 1"); err != nil {
		t.Fatal(err)
	}
	if scanned.Value() == before {
		t.Fatal("a valid SELECT did not move prov_store_scan_records_total: the test watches the wrong counter")
	}

	for src, want := range map[string]string{
		"SELECT nope FROM executions":                                    `pql: no column "nope" (have id, run, module, moduleType, status, wallNanos)`,
		"SELECT id FROM executions ORDER BY nope":                        `pql: ORDER BY column "nope" not in table executions`,
		"SELECT id FROM executions WHERE nope = 'x'":                     `pql: unknown column "nope" in predicate`,
		"SELECT id FROM executions JOIN gens ON executions.id = gens.id": `pql: ON column "id" not in table gens`,
	} {
		before := scanned.Value()
		_, err := pql.Run(fs, src)
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", src, err, want)
		}
		if n := scanned.Value() - before; n != 0 {
			t.Errorf("%s: decoded %d records before failing validation", src, n)
		}
	}
}
