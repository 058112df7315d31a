package scan_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/query/scan"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// TestShardedOrderMatchesSequential checks the parallel sharded scan
// emits run logs in exactly the router's global order — the order a
// sequential MemStore scan of the same ingest sees — and that the shard
// fan-out is reported, including through an unwrapping cache layer.
func TestShardedOrderMatchesSequential(t *testing.T) {
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 2, Agent: "scan"})
	mem := store.NewMemStore()
	sharded := shardedstore.NewMem(4)
	for _, wf := range []*workflow.Workflow{
		workloads.MedicalImaging(),
		workloads.SmoothedImaging(),
		workloads.Genomics("g1"),
		workloads.Genomics("g2"),
		workloads.Forecasting("f1"),
		workloads.DownloadAndRender(),
	} {
		res, err := e.Run(context.Background(), wf, nil)
		if err != nil {
			t.Fatal(err)
		}
		log, err := col.Log(res.RunID)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.PutRunLog(log); err != nil {
			t.Fatal(err)
		}
		if err := sharded.PutRunLog(log); err != nil {
			t.Fatal(err)
		}
	}

	order := func(s store.Store) (ids []string, shards int) {
		t.Helper()
		n, err := scan.ShardedLogs(s, func(l *provenance.RunLog) error {
			ids = append(ids, l.Run.ID)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ids, n
	}

	memIDs, memShards := order(mem)
	if memShards != 0 {
		t.Fatalf("mem shards = %d", memShards)
	}
	if len(memIDs) != 6 {
		t.Fatalf("mem runs = %v", memIDs)
	}
	shIDs, shShards := order(sharded)
	if shShards != 4 {
		t.Fatalf("sharded shards = %d", shShards)
	}
	if len(shIDs) != len(memIDs) {
		t.Fatalf("sharded runs = %v vs %v", shIDs, memIDs)
	}
	for i := range memIDs {
		if shIDs[i] != memIDs[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, shIDs, memIDs)
		}
	}

	// The cache wrapper unwraps to the router: same order, same fan-out.
	cached := closurecache.New(sharded, closurecache.Options{})
	cIDs, cShards := order(cached)
	if cShards != 4 {
		t.Fatalf("cached shards = %d", cShards)
	}
	for i := range memIDs {
		if cIDs[i] != memIDs[i] {
			t.Fatalf("cached order differs at %d: %v vs %v", i, cIDs, memIDs)
		}
	}
}

// chainRun is a small run consuming one artifact and generating the next.
func chainRun(i int) *provenance.RunLog {
	id := fmt.Sprintf("run-%04d", i)
	exec := id + "-exec"
	in, out := fmt.Sprintf("art-%04d", i), fmt.Sprintf("art-%04d", i+1)
	return &provenance.RunLog{
		Run:        provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK},
		Executions: []*provenance.Execution{{ID: exec, RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK}},
		Artifacts: []*provenance.Artifact{
			{ID: in, RunID: id, Type: "blob"},
			{ID: out, RunID: id, Type: "blob"},
		},
		Events: []provenance.Event{
			{Seq: 1, RunID: id, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in},
			{Seq: 2, RunID: id, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
		},
	}
}

// runAtATime is the reference iteration the scanner replaces.
func runAtATime(t *testing.T, s store.Store) []*provenance.RunLog {
	t.Helper()
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var out []*provenance.RunLog
	for _, id := range runs {
		l, err := s.RunLog(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// TestFileBackedScanMatchesRunAtATime is the scan's differential test over
// log-backed stores: on a single file store and on a 4-shard file-backed
// router (through a cache wrapper, and again after a reopen rebuilt the
// router from its shard logs), ScanLogs yields exactly the sequence
// Runs()+RunLog(id) yields, and ScanLogs from any run count yields
// its tail.
func TestFileBackedScanMatchesRunAtATime(t *testing.T) {
	single, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	dir := t.TempDir()
	router, err := shardedstore.OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		for _, s := range []store.Store{single, router} {
			if err := s.PutRunLog(chainRun(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(label string, s store.Store) {
		t.Helper()
		want := runAtATime(t, s)
		if len(want) != n {
			t.Fatalf("%s: %d runs stored, want %d", label, len(want), n)
		}
		var got []*provenance.RunLog
		if err := s.ScanLogs(0, func(l *provenance.RunLog) error { got = append(got, l); return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ScanLogs differs from run-at-a-time (%d vs %d logs)", label, len(got), len(want))
		}
		for _, skip := range []int{1, n / 2, n - 1, n} {
			var tail []*provenance.RunLog
			err := s.ScanLogs(skip, func(l *provenance.RunLog) error { tail = append(tail, l); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(tail) != n-skip || (len(tail) > 0 && !reflect.DeepEqual(tail, want[skip:])) {
				t.Fatalf("%s: scan from run %d yielded %d logs, want the last %d", label, skip, len(tail), n-skip)
			}
		}
	}
	check("file", single)
	check("router", router)
	check("cache over router", closurecache.New(router, closurecache.Options{}))
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := shardedstore.OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened router", reopened)
}

// TestShardedScanDuringIngest runs scans over a 4-shard file-backed router
// beside concurrent writers and a checkpointer (run under -race): every
// scan must emit a prefix of the router's final accepted order — the runs
// the router had acknowledged when the scan began, none skipped, none
// surfaced early.
func TestShardedScanDuringIngest(t *testing.T) {
	router, err := shardedstore.OpenWith(t.TempDir(), 4, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := router.PutRunLog(chainRun(w*1000 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var ckpt sync.WaitGroup
	ckpt.Add(1)
	go func() {
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := router.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var scans [][]string
	for len(scans) < 15 {
		var ids []string
		if err := router.ScanLogs(0, func(l *provenance.RunLog) error { ids = append(ids, l.Run.ID); return nil }); err != nil {
			t.Fatal(err)
		}
		scans = append(scans, ids)
	}
	wg.Wait()
	close(stop)
	ckpt.Wait()

	final, _ := router.Runs()
	if len(final) != writers*perWriter {
		t.Fatalf("stored %d runs, want %d", len(final), writers*perWriter)
	}
	for n, ids := range scans {
		if len(ids) > len(final) || (len(ids) > 0 && !reflect.DeepEqual(ids, final[:len(ids)])) {
			t.Fatalf("scan %d (%d runs) is not a prefix of the final accepted order", n, len(ids))
		}
	}
	var quiet []string
	if err := router.ScanLogs(0, func(l *provenance.RunLog) error { quiet = append(quiet, l.Run.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(quiet, final) {
		t.Fatal("quiescent scan differs from the accepted order")
	}
}
