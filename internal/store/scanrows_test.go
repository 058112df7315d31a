package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// rowsRun is run i of the differential workload: two chained executions
// consuming the previous run's output (so IDs recur across runs), ports,
// sizes, wall times, a failed status now and then, an execution whose own
// run field names another run, a lifecycle event that is no edge, and an
// annotation.
func rowsRun(i int) *provenance.RunLog {
	in := fmt.Sprintf("art-%03d-in", i)
	if i > 0 {
		in = fmt.Sprintf("art-%03d-1", i-1)
	}
	return chainRun(i, in)
}

// chainRun is rowsRun consuming artifact in.
func chainRun(i int, in string) *provenance.RunLog {
	id := fmt.Sprintf("run-%03d", i)
	l := &provenance.RunLog{Run: provenance.Run{
		ID: id, WorkflowID: fmt.Sprintf("wf-%d", i%3), WorkflowHash: fmt.Sprintf("hash-%d", i%3),
		Agent: fmt.Sprintf("agent-%d", i%2), Status: provenance.StatusOK,
	}}
	l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: in, RunID: id, Type: "blob", ContentHash: fmt.Sprintf("%016x", i), Size: int64(i)})
	var seq uint64
	event := func(ev provenance.Event) {
		seq++
		ev.Seq, ev.RunID = seq, id
		l.Events = append(l.Events, ev)
	}
	for j := 0; j < 2; j++ {
		exec := fmt.Sprintf("exec-%03d-%d", i, j)
		out := fmt.Sprintf("art-%03d-%d", i, j)
		status := provenance.StatusOK
		if (i+j)%5 == 0 {
			status = provenance.StatusFailed
		}
		runID := id
		if i%7 == 3 && j == 1 {
			runID = "elsewhere"
		}
		l.Executions = append(l.Executions, &provenance.Execution{
			ID: exec, RunID: runID, ModuleID: fmt.Sprintf("m%d", j), ModuleType: []string{"Align", "Render"}[j],
			Status: status, WallNanos: int64(1000*i + j),
		})
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: out, RunID: id, Type: []string{"image", "graphic"}[j], ContentHash: fmt.Sprintf("%016x", 100*i+j), Size: int64(10*i + j)})
		event(provenance.Event{Kind: provenance.EventExecutionStarted, ExecutionID: exec})
		event(provenance.Event{Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in, Port: "in"})
		event(provenance.Event{Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out, Port: fmt.Sprintf("out%d", j)})
		in = out
	}
	l.Annotations = append(l.Annotations, provenance.Annotation{Subject: in, Kind: provenance.KindArtifact, Key: "note", Value: fmt.Sprintf("v%d", i), Author: "alice", Seq: seq + 1})
	return l
}

func putRuns(t *testing.T, s store.Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.PutRunLog(rowsRun(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkScanRows holds ScanRows to Rows over ScanLogs on s, run by run and
// row by row, and to the store's Runs() order.
func checkScanRows(t *testing.T, s store.Store, wantRuns int) {
	t.Helper()
	var want []*store.RunRows
	if err := s.ScanLogs(0, func(l *provenance.RunLog) error {
		want = append(want, store.Rows(l))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []*store.RunRows
	if err := s.ScanRows(func(r *store.RunRows) error {
		c := new(store.RunRows)
		r.CopyTo(c)
		got = append(got, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != wantRuns || len(want) != wantRuns || len(runs) != wantRuns {
		t.Fatalf("ScanRows visited %d runs, ScanLogs %d, Runs() lists %d; want %d", len(got), len(want), len(runs), wantRuns)
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Run.ID != runs[k] {
			t.Fatalf("run %d: ScanRows visited %s, Runs() lists %s", k, g.Run.ID, runs[k])
		}
		if g.Run != w.Run {
			t.Fatalf("run %d: runs row %+v, want %+v", k, g.Run, w.Run)
		}
		for name, same := range map[string]bool{
			"executions":  slices.Equal(g.Executions, w.Executions),
			"artifacts":   slices.Equal(g.Artifacts, w.Artifacts),
			"edges":       slices.Equal(g.Edges, w.Edges),
			"annotations": slices.Equal(g.Annotations, w.Annotations),
		} {
			if !same {
				t.Fatalf("run %s: %s rows differ from the log's flattening", g.Run.ID, name)
			}
		}
	}
}

func openFile(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	s, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanRowsMatchesFlattenedLogs is ScanRows' differential test: on
// every backend and in every state a file store's row image can be in, it
// yields exactly Rows over ScanLogs.
func TestScanRowsMatchesFlattenedLogs(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		s := store.NewMemStore()
		putRuns(t, s, 0, 12)
		checkScanRows(t, s, 12)
	})
	t.Run("file/cold", func(t *testing.T) {
		s := openFile(t, t.TempDir())
		defer s.Close()
		putRuns(t, s, 0, 12)
		checkScanRows(t, s, 12)
	})
	t.Run("file/partial", func(t *testing.T) {
		s := openFile(t, t.TempDir())
		defer s.Close()
		putRuns(t, s, 0, 5)
		checkScanRows(t, s, 5)
		putRuns(t, s, 5, 12)
		checkScanRows(t, s, 12)
		putRuns(t, s, 12, 13)
		checkScanRows(t, s, 13)
	})
	t.Run("file/checkpoint-reopen", func(t *testing.T) {
		dir := t.TempDir()
		s := openFile(t, dir)
		putRuns(t, s, 0, 8)
		checkScanRows(t, s, 8)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		putRuns(t, s, 8, 10) // past the checkpoint: replayed at reopen
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openFile(t, dir)
		defer s.Close()
		checkScanRows(t, s, 10)
		putRuns(t, s, 10, 14)
		checkScanRows(t, s, 14)
	})
	t.Run("file/torn-tail", func(t *testing.T) {
		dir := t.TempDir()
		s := openFile(t, dir)
		putRuns(t, s, 0, 8)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, store.LogFileName), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"run":{"id":"run-torn","workflowId":"w`); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s = openFile(t, dir)
		defer s.Close()
		checkScanRows(t, s, 8)
		putRuns(t, s, 8, 11)
		checkScanRows(t, s, 11)
	})
	t.Run("file/follower", func(t *testing.T) {
		primary := openFile(t, t.TempDir())
		defer primary.Close()
		follower := openFile(t, t.TempDir())
		defer follower.Close()
		ship := func() {
			data, _, err := primary.ReadCommitted(follower.CommittedOffset(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := follower.ApplyReplicated(data); err != nil {
				t.Fatal(err)
			}
		}
		putRuns(t, primary, 0, 6)
		ship()
		checkScanRows(t, follower, 6)
		putRuns(t, primary, 6, 12)
		ship()
		checkScanRows(t, follower, 12)
	})
	for _, shards := range []string{"file", "mem"} {
		t.Run("router/"+shards, func(t *testing.T) {
			var r *shardedstore.Router
			if shards == "file" {
				var err error
				if r, err = shardedstore.OpenWith(t.TempDir(), 4, store.FileOptions{}); err != nil {
					t.Fatal(err)
				}
			} else {
				r = shardedstore.NewMem(4)
			}
			defer r.Close()
			// Runs of one chain land together; chains from fresh seeds
			// spread over the shards, and extending them interleaves the
			// shards in the accepted order.
			putRuns(t, r, 0, 10)
			put := func(l *provenance.RunLog) {
				if err := r.PutRunLog(l); err != nil {
					t.Fatal(err)
				}
			}
			for c := 0; c < 3; c++ {
				put(chainRun(100+c, fmt.Sprintf("seed-%d", c)))
			}
			checkScanRows(t, r, 13)
			for c := 0; c < 3; c++ {
				put(chainRun(110+c, fmt.Sprintf("art-%03d-1", 100+c)))
			}
			putRuns(t, r, 10, 20)
			checkScanRows(t, r, 26)
		})
	}
}
