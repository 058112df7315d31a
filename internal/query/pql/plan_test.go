package pql_test

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/pql"
	"repro/internal/query/qbe"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// e17SynthLog synthesizes run i of the join workload: a chain of
// execsPerRun module executions, each consuming its predecessor's output
// artifact. Module types cycle through a fixed palette, every 16th
// execution fails (the selective predicate the pushdown exploits), and
// every 4th artifact is an image (a second, milder filter).
func e17SynthLog(i, execsPerRun int) *provenance.RunLog {
	runID := fmt.Sprintf("e17-run-%06d", i)
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: fmt.Sprintf("wf-%d", i%4), Agent: fmt.Sprintf("agent-%d", i%3), Status: provenance.StatusOK}
	types := []string{"Ingest", "Clean", "Contour", "Render", "Stat", "Publish"}
	var seq uint64
	prev := fmt.Sprintf("e17-art-%06d-in", i)
	l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: prev, RunID: runID, Type: "blob"})
	for j := 0; j < execsPerRun; j++ {
		exec := fmt.Sprintf("e17-exec-%06d-%02d", i, j)
		out := fmt.Sprintf("e17-art-%06d-%02d", i, j)
		status := provenance.StatusOK
		if (i*execsPerRun+j)%16 == 0 {
			status = provenance.StatusFailed
		}
		atype := "blob"
		if j%4 == 3 {
			atype = "image"
		}
		l.Executions = append(l.Executions, &provenance.Execution{
			ID: exec, RunID: runID, ModuleID: fmt.Sprintf("m%d", j),
			ModuleType: types[j%len(types)], Status: status,
		})
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: out, RunID: runID, Type: atype})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: prev})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
		prev = out
	}
	return l
}

// e17Queries is the multi-join PQL battery: every query joins two
// provenance tables; two carry selective predicates the streaming planner
// pushes below the join, one is an unselective count, one sorts and
// truncates.
var e17Queries = []string{
	"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE status = 'fail' ORDER BY artifact",
	"SELECT exec, type FROM gens JOIN artifacts ON artifact = artifacts.id WHERE type = 'image' ORDER BY exec",
	"SELECT workflow, module FROM runs JOIN executions ON runs.id = run WHERE moduleType = 'Contour' ORDER BY module LIMIT 50",
	"SELECT COUNT(*) FROM executions JOIN uses ON executions.id = exec WHERE status = 'ok'",
}

// e17Store fills s with the join workload's store: 64 synthetic runs of
// six executions.
func e17Store(t testing.TB, s store.Store) store.Store {
	t.Helper()
	for i := 0; i < 64; i++ {
		if err := s.PutRunLog(e17SynthLog(i, 6)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func e17Battery(t testing.TB) []*pql.Query {
	t.Helper()
	qs := make([]*pql.Query, len(e17Queries))
	for i, src := range e17Queries {
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

// TestConcurrentSelectsOnShards runs the E17 battery from four goroutines
// at once over a 4-shard router, of memory and of file shards: every answer
// must be the battery's serial answer. Under -race it checks that what a
// leaf scan fills from the shards' parallel streams belongs to its query.
func TestConcurrentSelectsOnShards(t *testing.T) {
	fileShards, err := shardedstore.OpenWith(t.TempDir(), 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fileShards.Close()
	qs := e17Battery(t)
	for _, s := range []store.Store{e17Store(t, shardedstore.NewMem(4)), e17Store(t, fileShards)} {
		want := make([]*pql.Result, len(qs))
		for i, q := range qs {
			if want[i], err = pql.Execute(s, q); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, q := range qs {
					got, err := pql.Execute(s, q)
					if err == nil && !reflect.DeepEqual(got, want[i]) {
						err = fmt.Errorf("%s: %v, serially %v", e17Queries[i], got.Rows, want[i].Rows)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
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

// TestRowImageDecodesOnlyNewRecords pins what the file store's row image
// saves, counted in records decoded (prov_store_scan_records_total): the
// first SELECT decodes every stored record, a second one none, an ingest
// and another SELECT exactly the new record, and Datalog's LoadStore and
// QBE's closure filter after a SELECT none.
func TestRowImageDecodesOnlyNewRecords(t *testing.T) {
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e17Store(t, fs)
	scanned := obs.Default().Counter("prov_store_scan_records_total", "")
	decodes := func(what string, want uint64, fn func() error) {
		t.Helper()
		before := scanned.Value()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := scanned.Value() - before; n != want {
			t.Fatalf("%s decoded %d records, want %d", what, n, want)
		}
	}
	sel := func() error {
		_, err := pql.Run(fs, "SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE status = 'failed'")
		return err
	}
	decodes("the first SELECT", 64, sel)
	decodes("a second SELECT", 0, sel)
	if err := fs.PutRunLog(e17SynthLog(64, 6)); err != nil {
		t.Fatal(err)
	}
	decodes("a SELECT after one ingest", 1, sel)
	decodes("LoadStore after a SELECT", 0, func() error {
		p, err := datalog.ParseProgram(datalog.ProvenanceRules)
		if err != nil {
			return err
		}
		return datalog.LoadStore(p, fs)
	})
	decodes("FilterByClosure after a SELECT", 0, func() error {
		_, err := qbe.FilterByClosure(fs, nil, "e17-art-000064-05", store.Up)
		return err
	})
}

// BenchmarkE17StreamingExec runs the join battery over the 64-run store
// through the executor on a MemStore, over a 4-shard router (parallel
// leaf scans) and on one FileStore whose row image is warm (an untimed
// pass builds it, so no timed pass decodes a record), plus the Datalog
// provenance fixpoint (derived facts reported). Allocations are reported —
// the pipelined iterators' avoided intermediate materialization is the
// headline observable.
func BenchmarkE17StreamingExec(b *testing.B) {
	mem := e17Store(b, store.NewMemStore())
	sharded := e17Store(b, shardedstore.NewMem(4))
	file, err := store.OpenFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer file.Close()
	e17Store(b, file)
	queries := e17Battery(b)
	battery := func(s store.Store) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := pql.Execute(s, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("store=mem", battery(mem))
	b.Run("store=sharded", battery(sharded))
	for _, q := range queries {
		if _, err := pql.Execute(file, q); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("store=file", battery(file))

	b.Run("datalog", func(b *testing.B) {
		b.ReportAllocs()
		derived := 0
		for i := 0; i < b.N; i++ {
			p, err := datalog.NewProvenanceProgram(mem)
			if err != nil {
				b.Fatal(err)
			}
			derived = p.Evaluate()
		}
		b.ReportMetric(float64(derived), "derived-facts")
	})
}
