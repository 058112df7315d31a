package pql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
	"repro/internal/workloads"
)

// equivStores builds a MemStore, a 4-shard router, a FileStore and a
// 4-shard router over file shards holding the same multi-workflow
// provenance, so equivalence runs over an unsharded and a parallel-scanned
// backend, each both with flattened logs and with row images.
func equivStores(t testing.TB) []store.Store {
	t.Helper()
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 2, Agent: "equiv"})
	mem := store.NewMemStore()
	sharded := shardedstore.NewMem(4)
	file, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	fileSharded, err := shardedstore.OpenWith(t.TempDir(), 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fileSharded.Close() })
	stores := []store.Store{mem, sharded, file, fileSharded}
	for i, w := range []func() (string, error){
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.MedicalImaging(), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.SmoothedImaging(), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.Genomics("sample-1"), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.Forecasting("station-A"), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
	} {
		runID, err := w()
		if err != nil {
			t.Fatalf("workload %d: %v", i, err)
		}
		log, err := col.Log(runID)
		if err != nil {
			t.Fatalf("no log for %s: %v", runID, err)
		}
		for _, s := range stores {
			if err := s.PutRunLog(log); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stores
}

// equivQueries spans scans, single-table and cross-table WHEREs, joins,
// COUNT, ORDER BY and LIMIT, avoiding the two documented divergences (ORDER BY
// unselected columns; data-dependent unknown-column errors).
var equivQueries = []string{
	"SELECT * FROM runs",
	"SELECT * FROM executions",
	"SELECT id, module FROM executions WHERE status = 'ok' ORDER BY id",
	"SELECT module FROM executions WHERE moduleType = 'Contour' OR moduleType = 'Render'",
	"SELECT COUNT(*) FROM artifacts",
	"SELECT COUNT(*) FROM executions WHERE status = 'ok'",
	"SELECT id, type FROM artifacts ORDER BY id DESC LIMIT 3",
	"SELECT * FROM gens JOIN artifacts ON artifact = artifacts.id",
	"SELECT exec, port, type FROM gens JOIN artifacts ON artifact = artifacts.id WHERE type = 'image' ORDER BY port",
	"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec ORDER BY artifact",
	"SELECT module, artifact FROM executions JOIN uses ON executions.id = exec WHERE status = 'ok' ORDER BY artifact DESC LIMIT 4",
	"SELECT COUNT(*) FROM executions JOIN gens ON executions.id = exec WHERE moduleType LIKE '%o%'",
	"SELECT workflow, module FROM runs JOIN executions ON runs.id = run ORDER BY module LIMIT 10",
	"SELECT runs.id, executions.id FROM runs JOIN executions ON runs.id = run WHERE workflow LIKE 'medical%' ORDER BY executions.id",
	"SELECT subject, value FROM annotations",
	// A WHERE on the JOIN table's ON column: it names the FROM column's
	// variable, so the planner runs it on the FROM table's scan.
	"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE exec != 'x' ORDER BY artifact",
	// A cross-table OR, which can only run above the join.
	"SELECT exec, type FROM gens JOIN artifacts ON artifact = artifacts.id WHERE type = 'image' OR port = 'out'",
	// LIMIT without ORDER BY where the JOIN table is the smaller one: pins
	// the row order of the FROM table probing.
	"SELECT executions.id, workflow FROM executions JOIN runs ON run = runs.id LIMIT 5",
}

// invalidQueries parse, and fail validation on both executors.
var invalidQueries = []string{
	"SELECT * FROM ghosts",
	"SELECT nope FROM runs",
	"SELECT id FROM runs WHERE ghost = '1'",
	"SELECT * FROM runs JOIN ghosts ON id = id",
	"SELECT * FROM runs JOIN executions ON ghost = run",
	"SELECT * FROM runs JOIN executions ON id = id",
	"SELECT * FROM executions JOIN gens ON exec = exec",
	"SELECT id FROM runs ORDER BY ghost",
}

// TestStreamingMatchesEagerEndToEnd pins Execute (streaming) to
// ExecuteEager (reference) over every store of equivStores on a
// battery spanning scans, pushdown-eligible WHEREs, joins, COUNT, ORDER
// BY and LIMIT. Queries avoid the two documented divergences (ORDER BY
// unselected columns; data-dependent unknown-column errors).
func TestStreamingMatchesEagerEndToEnd(t *testing.T) {
	for si, s := range equivStores(t) {
		for _, src := range equivQueries {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			want, werr := ExecuteEager(s, q)
			got, gerr := Execute(s, q)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("store %d %q: eager err=%v stream err=%v", si, src, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(want.Columns, got.Columns) {
				t.Fatalf("store %d %q: columns %v vs %v", si, src, got.Columns, want.Columns)
			}
			if len(want.Rows) != len(got.Rows) {
				t.Fatalf("store %d %q: %d rows vs %d\n got=%v\nwant=%v", si, src, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
			}
			for i := range want.Rows {
				if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
					t.Fatalf("store %d %q: row %d %v vs %v", si, src, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
}

// TestStreamingErrorParity pins the compile-time error surface: unknown
// tables/columns and bad ON references fail on both paths.
func TestStreamingErrorParity(t *testing.T) {
	s := equivStores(t)[0]
	for _, src := range invalidQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Execute(s, q); err == nil {
			t.Fatalf("streaming accepted %q", src)
		}
		if _, err := ExecuteEager(s, q); err == nil {
			t.Fatalf("eager accepted %q", src)
		}
	}
}

// TestExplainCounters sanity-checks the explain surface over the sharded
// backend: probe/build order, 4-way scan fan-out, non-zero operator rows.
func TestExplainCounters(t *testing.T) {
	stores := equivStores(t)
	sharded := stores[1]
	q, err := Parse("SELECT module, artifact FROM executions JOIN gens ON executions.id = exec ORDER BY artifact")
	if err != nil {
		t.Fatal(err)
	}
	res, ex, err := ExecuteExplain(sharded, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if ex.Shards != 4 {
		t.Fatalf("shards = %d", ex.Shards)
	}
	if len(ex.JoinOrder) != 2 || ex.JoinOrder[0] != "executions" || ex.JoinOrder[1] != "gens" {
		t.Fatalf("join order = %v", ex.JoinOrder)
	}
	var scanRows int64
	for _, op := range ex.Ops {
		if op.Label == "scan(executions)" {
			scanRows = op.Rows
		}
	}
	if scanRows == 0 {
		t.Fatalf("scan counter empty: %+v", ex.Ops)
	}
	if fmt.Sprint(ex) == "" || ex.String() == "" {
		t.Fatal("empty explain rendering")
	}
}
