package store

// Crash-recovery and conformance properties of the WAL-backed FileStore:
// byte-level truncation fuzzing of the final batch, checkpointed reopens
// that never read the pre-checkpoint prefix, and a randomized equivalence
// check against MemStore across interleaved concurrent ingest, closure
// sweeps and reopen cycles (run under -race in CI).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/provenance"
)

// synthRun builds one run consuming the given inputs (re-declared, as
// content-addressed sharing does) and generating the given outputs.
func synthRun(id string, inputs, outputs []string) *provenance.RunLog {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}
	exec := id + "-exec"
	l.Executions = []*provenance.Execution{{ID: exec, RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}}
	var seq uint64
	for _, in := range inputs {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: in, RunID: id, Type: "blob"})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: id, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in})
	}
	for _, out := range outputs {
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: out, RunID: id, Type: "blob"})
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: id, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out})
	}
	return l
}

// TestCrashRecoveryTruncateEveryByte is the torn-tail fuzz of the
// acceptance criteria: a store's log is truncated at every byte offset
// across its final records (the last group-commit batch), and every
// truncation must reopen to exactly the fully-committed prefix — never a
// partial record, never a lost complete one — in all durability modes,
// with and without a (now stale) checkpoint present.
func TestCrashRecoveryTruncateEveryByte(t *testing.T) {
	for _, mode := range []Durability{DurabilityNone, DurabilityGroup} {
		for _, withStaleCkpt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/staleCkpt=%v", mode, withStaleCkpt), func(t *testing.T) {
				dir := t.TempDir()
				s, err := OpenFileStoreWith(dir, FileOptions{Durability: mode})
				if err != nil {
					t.Fatal(err)
				}
				const nRuns = 6
				prev := "seed-art"
				for i := 0; i < nRuns; i++ {
					out := fmt.Sprintf("art-%02d", i)
					if err := s.PutRunLog(synthRun(fmt.Sprintf("run-%02d", i), []string{prev}, []string{out})); err != nil {
						t.Fatal(err)
					}
					prev = out
				}
				if withStaleCkpt {
					// A checkpoint covering the whole log: every truncation
					// below its offset must fall back to the full scan.
					if err := s.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				logPath := filepath.Join(dir, LogFileName)
				data, err := os.ReadFile(logPath)
				if err != nil {
					t.Fatal(err)
				}
				var ckpt []byte
				if withStaleCkpt {
					ckpt, err = os.ReadFile(filepath.Join(dir, checkpointFileName))
					if err != nil {
						t.Fatal(err)
					}
				}

				// Record boundaries: end offset of each complete line.
				var ends []int
				for i, b := range data {
					if b == '\n' {
						ends = append(ends, i+1)
					}
				}
				if len(ends) != nRuns {
					t.Fatalf("%d records in log, want %d", len(ends), nRuns)
				}
				// The "final batch": the last three records.
				tailStart := ends[nRuns-4]

				for cut := tailStart; cut <= len(data); cut++ {
					wantRuns := 0
					for _, e := range ends {
						if e <= cut {
							wantRuns++
						}
					}
					cdir := t.TempDir()
					if err := os.WriteFile(filepath.Join(cdir, LogFileName), data[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					if withStaleCkpt {
						if err := os.WriteFile(filepath.Join(cdir, checkpointFileName), ckpt, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					r, err := OpenFileStoreWith(cdir, FileOptions{Durability: mode})
					if err != nil {
						t.Fatalf("cut=%d: reopen: %v", cut, err)
					}
					runs, err := r.Runs()
					if err != nil {
						t.Fatalf("cut=%d: %v", cut, err)
					}
					if len(runs) != wantRuns {
						t.Fatalf("cut=%d: recovered %d runs %v, want %d", cut, len(runs), runs, wantRuns)
					}
					for i, id := range runs {
						if id != fmt.Sprintf("run-%02d", i) {
							t.Fatalf("cut=%d: run[%d] = %s", cut, i, id)
						}
					}
					// The surviving graph must be the exact prefix chain.
					if wantRuns > 0 {
						lin, err := r.Closure(fmt.Sprintf("art-%02d", wantRuns-1), Up)
						if err != nil {
							t.Fatalf("cut=%d: closure: %v", cut, err)
						}
						// Chain: art-i <- exec-i <- art-(i-1) ... <- seed-art.
						if want := 2 * wantRuns; len(lin) != want {
							t.Fatalf("cut=%d: closure has %d nodes, want %d", cut, len(lin), want)
						}
					}
					if err := r.Close(); err != nil {
						t.Fatalf("cut=%d: close: %v", cut, err)
					}
				}
			})
		}
	}
}

// TestCheckpointReopenSkipsPrefix proves a checkpointed reopen replays
// only the log suffix: the pre-checkpoint prefix is corrupted in place,
// yet the reopen restores every run — and the control reopen without the
// checkpoint (forced full scan) visibly loses the corrupted history.
func TestCheckpointReopenSkipsPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewMemStore()
	put := func(st Store, l *provenance.RunLog) {
		t.Helper()
		if err := st.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	prev := "seed-art"
	for i := 0; i < 10; i++ {
		out := fmt.Sprintf("art-%02d", i)
		l := synthRun(fmt.Sprintf("run-%02d", i), []string{prev}, []string{out})
		put(s, l)
		put(ref, l)
		prev = out
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckptOff, ok := s.LastCheckpoint()
	if !ok || ckptOff <= 0 {
		t.Fatalf("LastCheckpoint = %d, %v", ckptOff, ok)
	}
	for i := 10; i < 13; i++ {
		out := fmt.Sprintf("art-%02d", i)
		l := synthRun(fmt.Sprintf("run-%02d", i), []string{prev}, []string{out})
		put(s, l)
		put(ref, l)
		prev = out
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the pre-checkpoint prefix in place (same length, garbage
	// bytes): a full scan would stop dead at offset 8.
	logPath := filepath.Join(dir, LogFileName)
	f, err := os.OpenFile(logPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make([]byte, ckptOff-16)
	for i := range garbage {
		garbage[i] = 'X'
	}
	if _, err := f.WriteAt(garbage, 8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 13 {
		t.Fatalf("checkpointed reopen recovered %d runs, want 13 (prefix was read?)", len(runs))
	}
	wantLin, err := NaiveClosure(ref, "art-12", Up)
	if err != nil {
		t.Fatal(err)
	}
	gotLin, err := r.Closure("art-12", Up)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(wantLin)
	sort.Strings(gotLin)
	if !reflect.DeepEqual(gotLin, wantLin) {
		t.Fatalf("closure after prefix corruption diverged:\n got %v\nwant %v", gotLin, wantLin)
	}
	r.Close()

	// Control: without the checkpoint the full scan hits the corruption
	// and recovers nothing — proof the checkpointed path never read it.
	if err := os.Remove(filepath.Join(dir, checkpointFileName)); err != nil {
		t.Fatal(err)
	}
	cold, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldRuns, _ := cold.Runs()
	if len(coldRuns) >= 13 {
		t.Fatalf("control reopen saw %d runs through corrupted prefix", len(coldRuns))
	}
}

// TestConcurrentFoldMatchesLogOrder pins the watermark-fold guarantee:
// when concurrent writers race conflicting last-write-wins generator
// declarations into one group-commit store, the live index, a checkpoint
// taken afterwards, and a plain reopen must all agree on the winner and
// on Runs() order — the in-memory fold follows log-offset order, not
// lock-acquisition order.
func TestConcurrentFoldMatchesLogOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		s, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup})
		if err != nil {
			t.Fatal(err)
		}
		const writers = 8
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Every run re-declares the generator of the same artifact.
				l := synthRun(fmt.Sprintf("run-%d", w), nil, []string{"shared-art"})
				if err := s.PutRunLog(l); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		liveGen, _, err := expandOne(s, "shared-art", Up)
		if err != nil || len(liveGen) != 1 {
			t.Fatalf("generator %v, %v", liveGen, err)
		}
		liveRuns, _ := s.Runs()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen from the checkpoint, then again from a pure log scan.
		for _, label := range []string{"from-checkpoint", "full-scan"} {
			if label == "full-scan" {
				if err := os.Remove(filepath.Join(dir, checkpointFileName)); err != nil {
					t.Fatal(err)
				}
			}
			r, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup})
			if err != nil {
				t.Fatal(err)
			}
			gen, _, err := expandOne(r, "shared-art", Up)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gen, liveGen) {
				t.Fatalf("round %d %s: generator %v, live store said %v", round, label, gen, liveGen)
			}
			runs, _ := r.Runs()
			if !reflect.DeepEqual(runs, liveRuns) {
				t.Fatalf("round %d %s: runs %v, live store said %v", round, label, runs, liveRuns)
			}
			r.Close()
		}
	}
}

// TestGroupCommitStoreMatchesMemAcrossReopens is the randomized
// conformance property of the acceptance criteria: a WAL-backed store
// under concurrent group-commit ingest with interleaved closure sweeps,
// cycled through crash-flavored reopens (checkpoint present, deleted or
// corrupted), stays equivalent to the in-memory reference store.
func TestGroupCommitStoreMatchesMemAcrossReopens(t *testing.T) {
	dir := t.TempDir()
	ref := NewMemStore()
	rng := rand.New(rand.NewSource(1138))
	pool := []string{"root-art"}
	var entities []string
	runIdx := 0

	makeRun := func(withHazard bool) *provenance.RunLog {
		runIdx++
		id := fmt.Sprintf("run-%04d", runIdx)
		inputs := []string{pool[rng.Intn(len(pool))]}
		if rng.Intn(2) == 0 {
			inputs = append(inputs, pool[rng.Intn(len(pool))])
			if inputs[1] == inputs[0] {
				inputs = inputs[:1]
			}
		}
		var outputs []string
		for n := 1 + rng.Intn(2); n > 0; n-- {
			outputs = append(outputs, fmt.Sprintf("art-%04d-%d", runIdx, n))
		}
		l := synthRun(id, inputs, outputs)
		if withHazard && len(pool) > 1 {
			// Re-declare an existing artifact's generator (the
			// non-monotone case) — only on serial ingests, where the
			// last-write-wins order is deterministic.
			victim := pool[rng.Intn(len(pool))]
			redeclared := false
			for _, in := range inputs {
				if in == victim {
					redeclared = true
				}
			}
			if !redeclared {
				l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: victim, RunID: id, Type: "blob"})
				l.Events = append(l.Events, provenance.Event{
					Seq: uint64(len(l.Events) + 1), RunID: id, Kind: provenance.EventArtifactGen,
					ExecutionID: l.Executions[0].ID, ArtifactID: victim,
				})
			}
		}
		pool = append(pool, outputs...)
		entities = append(entities, outputs...)
		entities = append(entities, l.Executions[0].ID)
		return l
	}

	compare := func(fs *FileStore, label string) {
		t.Helper()
		refRuns, _ := ref.Runs()
		fsRuns, err := fs.Runs()
		if err != nil {
			t.Fatal(err)
		}
		if len(fsRuns) != len(refRuns) {
			t.Fatalf("%s: %d runs vs reference %d", label, len(fsRuns), len(refRuns))
		}
		sample := entities
		if len(sample) > 40 {
			sample = make([]string, 40)
			for i := range sample {
				sample[i] = entities[rng.Intn(len(entities))]
			}
		}
		for _, id := range sample {
			for _, dir := range []Direction{Up, Down} {
				want, werr := ref.Closure(id, dir)
				got, gerr := fs.Closure(id, dir)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: closure(%s,%s) err %v vs %v", label, id, dir, gerr, werr)
				}
				sort.Strings(want)
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: closure(%s,%s) diverged:\n got %v\nwant %v", label, id, dir, got, want)
				}
			}
			wantGen, wantOK, _ := expandOne(ref, id, Up)
			gotGen, gotOK, err := expandOne(fs, id, Up)
			if err != nil || gotOK != wantOK || !slices.Equal(gotGen, wantGen) {
				t.Fatalf("%s: generator(%s) = %v,%v,%v vs %v,%v", label, id, gotGen, gotOK, err, wantGen, wantOK)
			}
		}
	}

	const cycles = 4
	for cycle := 0; cycle < cycles; cycle++ {
		fs, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup, CheckpointEvery: 9})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		compare(fs, fmt.Sprintf("cycle %d reopen", cycle))

		// Concurrent phase: 4 writers ingest disjoint runs while 2
		// readers sweep closures. The same logs go to the reference
		// serially first (order within the store is irrelevant to the
		// compared state: no cross-run generator conflicts here).
		var logs []*provenance.RunLog
		for i := 0; i < 12; i++ {
			l := makeRun(false)
			if err := ref.PutRunLog(l); err != nil {
				t.Fatal(err)
			}
			logs = append(logs, l)
		}
		work := make(chan *provenance.RunLog, len(logs))
		for _, l := range logs {
			work <- l
		}
		close(work)
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for l := range work {
					if err := fs.PutRunLog(l); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		readPool := append([]string(nil), pool...) // race-free snapshot
		for rdr := 0; rdr < 2; rdr++ {
			readers.Add(1)
			go func(seed int64) {
				defer readers.Done()
				rr := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					id := readPool[rr.Intn(len(readPool))]
					dir := Direction(rr.Intn(2))
					if _, err := fs.Closure(id, dir); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
				}
			}(int64(cycle*10 + rdr))
		}
		writers.Wait()
		close(stop)
		readers.Wait()

		// Serial hazard ingest: deterministic last-write-wins order.
		l := makeRun(true)
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if err := fs.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		compare(fs, fmt.Sprintf("cycle %d post-ingest", cycle))
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}

		// Crash-flavored transition: keep, drop or corrupt the checkpoint
		// before the next reopen — recovery must not care.
		switch cycle % 3 {
		case 1:
			os.Remove(filepath.Join(dir, checkpointFileName))
		case 2:
			path := filepath.Join(dir, checkpointFileName)
			if data, err := os.ReadFile(path); err == nil && len(data) > 4 {
				data[len(data)/2] ^= 0xff
				os.WriteFile(path, data, 0o644)
			}
		}
	}
	// Final reopen after the last mutation.
	fs, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	compare(fs, "final reopen")
}
