package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// sameRows is row-by-row equality of two runs' rows, nil and empty alike.
func sameRows(a, b *RunRows) bool {
	return a.Run == b.Run && slices.Equal(a.Executions, b.Executions) &&
		slices.Equal(a.Artifacts, b.Artifacts) && slices.Equal(a.Edges, b.Edges) &&
		slices.Equal(a.Annotations, b.Annotations)
}

// scanRowsAll collects one ScanRows pass, each run's rows copied.
func scanRowsAll(t testing.TB, s Store) []*RunRows {
	t.Helper()
	var out []*RunRows
	if err := s.ScanRows(func(r *RunRows) error {
		c := new(RunRows)
		r.CopyTo(c)
		out = append(out, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanRowsConcurrentIngestAndCheckpoint runs row scans beside
// concurrent writers and a checkpointer (the race detector's target):
// every scan must return exactly the flattening of a prefix of the store's
// final run order.
func TestScanRowsConcurrentIngestAndCheckpoint(t *testing.T) {
	s, err := OpenFileStoreWith(t.TempDir(), FileOptions{Durability: DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter, readers = 4, 40, 2
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("run-%d-%03d", w, i)
				if err := s.PutRunLog(synthRun(id, []string{id + "-in"}, []string{id + "-out"})); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	scans := make([][][]*RunRows, readers)
	for r := 0; r < readers; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				scans[r] = append(scans[r], scanRowsAll(t, s))
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	bg.Wait()

	var want []*RunRows
	for _, l := range runAtATime(t, s) {
		want = append(want, Rows(l))
	}
	if len(want) != writers*perWriter {
		t.Fatalf("stored %d runs, want %d", len(want), writers*perWriter)
	}
	n := 0
	for r := range scans {
		for i, got := range scans[r] {
			if len(got) > len(want) {
				t.Fatalf("reader %d scan %d: %d runs, the store holds %d", r, i, len(got), len(want))
			}
			for k := range got {
				if !sameRows(got[k], want[k]) {
					t.Fatalf("reader %d scan %d run %d: rows %+v, want the flattening %+v", r, i, k, got[k], want[k])
				}
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no scan ran")
	}
	if got := scanRowsAll(t, s); len(got) != len(want) {
		t.Fatalf("quiescent scan: %d runs, want %d", len(got), len(want))
	}
}

// TestFoldNotDelayedByParkedRowReader is TestFoldNotDelayedByParkedReader
// for the row image: with one reader parked inside a ScanRows callback and
// another parked in the middle of a catch-up (holding the image lock), an
// ingest still folds and is readable.
func TestFoldNotDelayedByParkedRowReader(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, io := range [][2]string{{"", "a"}, {"a", "b"}} {
		var in []string
		if io[0] != "" {
			in = []string{io[0]}
		}
		if err := s.PutRunLog(synthRun(fmt.Sprintf("run-%d", i), in, []string{io[1]})); err != nil {
			t.Fatal(err)
		}
	}

	// Reader A builds the image, then parks on its first run.
	parkedA, releaseA := make(chan struct{}), make(chan struct{})
	doneA := make(chan int, 1)
	go func() {
		runs := 0
		err := s.ScanRows(func(*RunRows) error {
			if runs == 0 {
				close(parkedA)
				<-releaseA
			}
			runs++
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		doneA <- runs
	}()
	<-parkedA

	// Reader B finds one new record and parks after adding it.
	if err := s.PutRunLog(synthRun("run-2", []string{"b"}, []string{"c"})); err != nil {
		t.Fatal(err)
	}
	parkedB, releaseB := make(chan struct{}), make(chan struct{})
	catchUpStep = func() {
		close(parkedB)
		<-releaseB
	}
	defer func() { catchUpStep = nil }()
	doneB := make(chan int, 1)
	go func() {
		runs := 0
		if err := s.ScanRows(func(*RunRows) error { runs++; return nil }); err != nil {
			t.Error(err)
		}
		doneB <- runs
	}()
	<-parkedB

	folded := make(chan error, 1)
	go func() {
		err := s.PutRunLog(synthRun("run-3", []string{"c"}, []string{"d"}))
		if err == nil {
			err = hasArtifact(s, "d")
		}
		if err == nil {
			_, err = s.RunLog("run-3")
		}
		folded <- err
	}()
	select {
	case err := <-folded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked behind row readers parked in a callback and in a catch-up")
	}
	close(releaseA)
	close(releaseB)
	if a, b := <-doneA, <-doneB; a != 2 || b != 3 {
		t.Fatalf("the parked readers saw %d and %d runs, want the 2 and 3 stored when they began", a, b)
	}
	catchUpStep = nil
	if got := scanRowsAll(t, s); len(got) != 4 {
		t.Fatalf("a later scan saw %d runs, want 4", len(got))
	}
}

// TestRowImageGauge: prov_store_row_image_runs counts the runs a store's
// image covers, and closing the store takes them off.
func TestRowImageGauge(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := mRowImageRuns.Value()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("run-%d", i)
		if err := s.PutRunLog(synthRun(id, nil, []string{id + "-out"})); err != nil {
			t.Fatal(err)
		}
	}
	if got := mRowImageRuns.Value() - before; got != 0 {
		t.Fatalf("ingests built %d runs of image before any scan", got)
	}
	scanRowsAll(t, s)
	if got := mRowImageRuns.Value() - before; got != 3 {
		t.Fatalf("after a scan the gauge moved by %d, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mRowImageRuns.Value() - before; got != 0 {
		t.Fatalf("after Close the gauge is %d above where it began", got)
	}
}
