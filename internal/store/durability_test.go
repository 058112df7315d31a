package store

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/provenance"
)

// TestParseDurability: the flag form round-trips through String, and any
// other value — the retired per-append "fsync" mode among them — is an
// error naming the valid values.
func TestParseDurability(t *testing.T) {
	for _, d := range []Durability{DurabilityNone, DurabilityGroup} {
		if got, err := ParseDurability(d.String()); err != nil || got != d {
			t.Fatalf("ParseDurability(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
	for _, bad := range []string{"fsync", "", "Group"} {
		_, err := ParseDurability(bad)
		if err == nil || !strings.Contains(err.Error(), "none or group") {
			t.Fatalf("ParseDurability(%q) error = %v; want one naming none or group", bad, err)
		}
	}
}

// TestAutoCheckpointDrain pins the close-path contract: Drain must wait
// for an in-flight background checkpoint (so owners can close the files
// it touches) and suppress any checkpoint ticked afterwards.
func TestAutoCheckpointDrain(t *testing.T) {
	ac := NewAutoCheckpoint(1)
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	ac.Tick(func() error {
		runs.Add(1)
		close(started)
		<-release
		return nil
	})
	<-started

	drained := make(chan struct{})
	go func() {
		ac.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while a checkpoint was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the in-flight checkpoint finished")
	}

	ac.Tick(func() error { runs.Add(1); return nil })
	time.Sleep(20 * time.Millisecond)
	if got := runs.Load(); got != 1 {
		t.Fatalf("checkpoint ran after Drain: %d runs, want 1", got)
	}
	ac.Drain() // idempotent
}

// TestAutoCheckpointDrainNil asserts Drain is safe on the nil trigger a
// router built without checkpoint configuration carries.
func TestAutoCheckpointDrainNil(t *testing.T) {
	var ac *AutoCheckpoint
	ac.Drain()
	ac.Tick(func() error { return nil })
}

// TestFileStoreConcurrentDuplicateRun hammers the duplicate-ID guard
// under group commit: retries of one run ID race fillers that keep the
// fold watermark busy, and exactly one attempt may ever commit. The
// reservation must be held until the record is folded into offsets — a
// writer parked at the watermark has committed its record but not yet
// made it visible to the offsets guard, so releasing the reservation
// earlier lets a concurrent retry pass both checks and store the run
// twice.
func TestFileStoreConcurrentDuplicateRun(t *testing.T) {
	const iters, dups, fillers = 40, 4, 4
	for iter := 0; iter < iters; iter++ {
		s, err := OpenFileStoreWith(t.TempDir(), FileOptions{Durability: DurabilityGroup})
		if err != nil {
			t.Fatal(err)
		}
		var successes atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < dups; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := s.PutRunLog(genRun("dup", g)); err == nil {
					successes.Add(1)
				}
			}(g)
		}
		for g := 0; g < fillers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := s.PutRunLog(genRun(fmt.Sprintf("fill-%d", g), g)); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		if got := successes.Load(); got != 1 {
			t.Fatalf("iter %d: %d concurrent puts of the same run ID succeeded, want 1", iter, got)
		}
		runs, err := s.Runs()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, id := range runs {
			if seen[id] {
				t.Fatalf("iter %d: run %q stored twice: %v", iter, id, runs)
			}
			seen[id] = true
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// genRun is a one-execution run generating one artifact; n tells apart
// the entities of runs sharing an ID.
func genRun(run string, n int) *provenance.RunLog {
	art := fmt.Sprintf("%s-art-%d", run, n)
	exec := fmt.Sprintf("%s-exec-%d", run, n)
	return &provenance.RunLog{
		Run:        provenance.Run{ID: run, WorkflowID: "wf", Status: provenance.StatusOK},
		Artifacts:  []*provenance.Artifact{{ID: art, RunID: run, Type: "blob"}},
		Executions: []*provenance.Execution{{ID: exec, RunID: run, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}},
		Events: []provenance.Event{
			{Seq: 1, RunID: run, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: art},
		},
	}
}

// TestFollowerCheckpointCountsRuns: a follower FileStore counts
// CheckpointEvery in applied runs, as its primary counts ingests, not in
// shipped batches. One 4-run batch applied with CheckpointEvery 2 must
// leave a checkpoint once Close has drained the trigger.
func TestFollowerCheckpointCountsRuns(t *testing.T) {
	primary, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i := 0; i < 4; i++ {
		if err := primary.PutRunLog(genRun(fmt.Sprintf("run-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	batch, _, err := primary.ReadCommitted(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	follower, err := OpenFileStoreWith(dir, FileOptions{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	logs, _, err := follower.ApplyReplicated(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 4 {
		t.Fatalf("one batch applied %d runs, want 4", len(logs))
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(CheckpointPath(dir)); err != nil {
		t.Fatalf("no checkpoint after 4 runs applied with CheckpointEvery 2: %v", err)
	}
}
