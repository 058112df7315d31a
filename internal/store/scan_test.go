package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/provenance"
)

// scanAll collects a ScanLogs pass from the skip-th run.
func scanAll(t testing.TB, s Store, skip int) []*provenance.RunLog {
	t.Helper()
	var out []*provenance.RunLog
	if err := s.ScanLogs(skip, func(l *provenance.RunLog) error {
		out = append(out, l)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// runAtATime is the reference iteration: Runs() then RunLog(id).
func runAtATime(t testing.TB, s Store) []*provenance.RunLog {
	t.Helper()
	runs, err := s.Runs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*provenance.RunLog, 0, len(runs))
	for _, id := range runs {
		l, err := s.RunLog(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// sameLogs is deep equality that does not tell nil from empty.
func sameLogs(a, b []*provenance.RunLog) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// paddedRun is synthRun carrying about size bytes of annotations.
func paddedRun(id string, size int) *provenance.RunLog {
	l := synthRun(id, nil, []string{id + "-out"})
	for n := 0; n < size; n += 1 << 10 {
		l.Annotations = append(l.Annotations, provenance.Annotation{
			Subject: id, Kind: provenance.KindRun, Key: fmt.Sprintf("k%d", n), Value: strings.Repeat("v", 1<<10),
		})
	}
	return l
}

// TestScanLogsMatchesRunAtATime is the scanner's differential test on a
// file store: the streaming scan yields exactly what Runs()+RunLog(id)
// yields, from every starting run, including a record several times the
// read buffer; bytes past the fold watermark (a torn tail) are never
// surfaced; and a reopen after the scans replays to the same Stats.
func TestScanLogsMatchesRunAtATime(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		var l *provenance.RunLog
		switch {
		case i == 11:
			l = paddedRun("run-big", 2<<20+512<<10) // > 2 MiB: ten read buffers
		case i%7 == 3:
			l = paddedRun(fmt.Sprintf("run-%02d", i), 300<<10) // straddles a buffer refill
		default:
			l = synthRun(fmt.Sprintf("run-%02d", i), []string{fmt.Sprintf("a-%02d", i)}, []string{fmt.Sprintf("a-%02d", i+1)})
		}
		if err := s.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	want := runAtATime(t, s)
	for _, skip := range []int{0, 1, 11, 12, 29, 30, 31, -1} {
		got := scanAll(t, s, skip)
		from := min(max(skip, 0), len(want))
		if !sameLogs(got, want[from:]) {
			t.Fatalf("skip %d: scan yielded %d logs, run-at-a-time %d", skip, len(got), len(want)-from)
		}
	}

	// Bytes appended to the file behind the store's back sit above the
	// watermark: a whole extra record and then a torn one.
	extra, err := json.Marshal(synthRun("run-unacked", nil, []string{"x"}))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LogFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(append(extra, '\n'), extra[:len(extra)/2]...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := scanAll(t, s, 0); !sameLogs(got, want) {
		t.Fatalf("scan surfaced bytes past the watermark: %d logs, want %d", len(got), len(want))
	}

	before, _ := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Leave only a torn fragment past the watermark (recovery would index
	// the whole unacknowledged record): the reopen must truncate it and
	// replay to the same Stats.
	if err := os.Truncate(filepath.Join(dir, LogFileName), before.Bytes+int64(len(extra)/3)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after, _ := r.Stats()
	if after != before {
		t.Fatalf("reopen after scan: stats %+v, want %+v", after, before)
	}
	if got := scanAll(t, r, 0); !sameLogs(got, want) {
		t.Fatalf("scan after reopen differs: %d logs, want %d", len(got), len(want))
	}
}

// TestScanLogsConcurrentIngestAndCheckpoint runs scans beside concurrent
// writers and a checkpointer (the race detector's target): every scan
// must emit a prefix of the store's final run order — so only runs whose
// ingest was acknowledged — each log deep-equal to what RunLog returns.
func TestScanLogsConcurrentIngestAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStoreWith(dir, FileOptions{Durability: DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 60
	var acked sync.Map
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				acked.Store(id, true)
			}
		}(w)
	}
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
			if err := s.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var scans [][]string
	for len(scans) < 20 {
		var ids []string
		if err := s.ScanLogs(0, func(l *provenance.RunLog) error {
			ids = append(ids, l.Run.ID)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		scans = append(scans, ids)
	}
	wg.Wait()
	close(stop)
	ckpt.Wait()

	final, _ := s.Runs()
	if len(final) != writers*perWriter {
		t.Fatalf("stored %d runs, want %d", len(final), writers*perWriter)
	}
	for n, ids := range scans {
		if len(ids) > len(final) || !slices.Equal(ids, final[:len(ids)]) {
			t.Fatalf("scan %d is not a prefix of the final run order (%d runs)", n, len(ids))
		}
		for _, id := range ids {
			if _, ok := acked.Load(id); !ok {
				t.Fatalf("scan %d emitted %s, which was never acknowledged", n, id)
			}
		}
	}
	if got, want := scanAll(t, s, 0), runAtATime(t, s); !sameLogs(got, want) {
		t.Fatal("quiescent scan differs from run-at-a-time")
	}
	before, _ := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if after, _ := r.Stats(); after != before {
		t.Fatalf("reopen after scans: stats %+v, want %+v", after, before)
	}
}

// TestFoldNotDelayedByParkedReader pins the read path's lock discipline:
// a reader parked inside a scan callback holds no store lock, so an ingest
// folds (and a point read completes) while it is parked.
func TestFoldNotDelayedByParkedReader(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutRunLog(synthRun("run-0", nil, []string{"a"})); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		scanned <- s.ScanLogs(0, func(*provenance.RunLog) error {
			close(parked)
			<-release
			return nil
		})
	}()
	<-parked
	folded := make(chan error, 1)
	go func() {
		err := s.PutRunLog(synthRun("run-1", []string{"a"}, []string{"b"}))
		if err == nil {
			err = hasArtifact(s, "b")
		}
		folded <- err
	}()
	select {
	case err := <-folded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked behind a reader parked in a scan callback")
	}
	close(release)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
}

// allocPerOp reports the mean bytes allocated by one call of fn.
func allocPerOp(rounds int, fn func()) uint64 {
	var before, after runtime.MemStats
	fn() // warm lazily initialized state
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(rounds)
}

// TestReadPathAllocationBounds is the machine-independent gate on the read
// path: a point read of a ≈3 KB record allocates well under 64 KiB (it was
// over 1 MiB when every load wrapped the log in a fresh bufio reader), and
// a scan allocates in proportion to the records it decodes — no buffer per
// record, one buffer per scan.
func TestReadPathAllocationBounds(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.PutRunLog(paddedRun(fmt.Sprintf("run-%03d", i), 2<<10)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := s.Stats()
	record := uint64(st.Bytes) / n
	if record < 2<<10 || record > 4<<10 {
		t.Fatalf("test records are %d bytes, want ≈3 KB", record)
	}

	perLoad := allocPerOp(50, func() {
		if _, err := s.RunLog("run-100"); err != nil {
			t.Fatal(err)
		}
	})
	if perLoad > 64<<10 {
		t.Fatalf("RunLog of a %d-byte record allocated %d bytes, want ≤ 64 KiB", record, perLoad)
	}

	perScan := allocPerOp(5, func() {
		if err := s.ScanLogs(0, func(*provenance.RunLog) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	// Decoding a record allocates a small multiple of its encoded size
	// (strings, slices, maps); the scan adds one log-sized buffer.
	if limit := 8*uint64(st.Bytes) + 64<<10; perScan > limit {
		t.Fatalf("scan of %d records (%d log bytes) allocated %d bytes, want ≤ %d", n, st.Bytes, perScan, limit)
	}
	t.Logf("record %d B: RunLog allocates %d B, scan %d B per record", record, perLoad, perScan/n)
}

// TestEntitiesReadsEachOwningRunOnce checks the batch fetch against a
// MemStore holding the same runs and counts its record loads through the
// load histogram.
func TestEntitiesReadsEachOwningRunOnce(t *testing.T) {
	s, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := NewMemStore()
	var ids []string
	for r := 0; r < 3; r++ {
		var outs []string
		for a := 0; a < 5; a++ {
			outs = append(outs, fmt.Sprintf("art-%d-%d", r, a))
		}
		run := fmt.Sprintf("run-%d", r)
		l := synthRun(run, nil, outs)
		if err := s.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, outs...)
		ids = append(ids, run+"-exec")
	}
	ids = append(ids, "no-such-entity")

	before := mStoreLoadSeconds.Snapshot().Count
	ents, err := s.Entities(ids)
	if err != nil {
		t.Fatal(err)
	}
	if loads := mStoreLoadSeconds.Snapshot().Count - before; loads != 3 {
		t.Fatalf("Entities over 3 owning runs made %d record loads", loads)
	}
	want, _ := ref.Entities(ids)
	for i, id := range ids {
		if !reflect.DeepEqual(ents[i], want[i]) {
			t.Fatalf("Entities[%s] = %+v, MemStore says %+v", id, ents[i], want[i])
		}
	}
}

// FuzzLogScan feeds arbitrary bytes to the store as its log file: open and
// scan must not panic, the scan must emit exactly the records recovery
// indexed, the offset recovery truncated to must be where the scan ends
// (the bytes it read are the bytes that survive), and the row image must
// hold the flattening of exactly those records.
func FuzzLogScan(f *testing.F) {
	// A small generated log (the engine minimizes every input that finds
	// new coverage, and long seeds make that slow): two header-only records
	// and one with entities and events.
	var log bytes.Buffer
	for _, l := range []*provenance.RunLog{
		{Run: provenance.Run{ID: "r0"}},
		synthRun("r1", []string{"in"}, []string{"out"}),
		{Run: provenance.Run{ID: "r2"}},
	} {
		data, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		log.Write(data)
		log.WriteByte('\n')
	}
	whole := log.Bytes()
	f.Add([]byte{})
	f.Add(whole)
	f.Add(whole[:len(whole)-17])                                  // torn tail
	f.Add(append(append([]byte(nil), whole...), '\n'))            // empty line
	f.Add(append(append([]byte(nil), whole...), whole...))        // duplicate run IDs
	f.Add(append([]byte(`{"run":{"id":""}}`+"\n"), whole...))     // record without a run ID
	f.Add(append(append([]byte(nil), whole...), "not json\n"...)) // corrupt record
	escaped := synthRun("r\"3\u2028", []string{"<in>"}, []string{"out-é"})
	escaped.Run.WorkflowID = "wf \\ 中文 \x01"
	f.Add(append(append([]byte(nil), whole...), marshalLine(f, escaped)...))                // escapes, non-ASCII
	f.Add(append(append([]byte(nil), whole...), `{"run":{"id":"r4"},"extra":[1]}`+"\n"...)) // unknown key

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, LogFileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(dir)
		if err != nil {
			t.Skip(err) // recovery refused the directory; nothing to scan
		}
		defer s.Close()
		runs, _ := s.Runs()
		end := s.CommittedOffset()
		var scanned []string
		var flat []*RunRows
		bytesBefore := mStoreScanBytes.Value()
		if err := s.ScanLogs(0, func(l *provenance.RunLog) error {
			scanned = append(scanned, l.Run.ID)
			flat = append(flat, Rows(l))
			return nil
		}); err != nil {
			t.Fatalf("scan of a recovered log failed: %v", err)
		}
		if !slices.Equal(scanned, runs) {
			t.Fatalf("scan emitted %q, recovery indexed %q", scanned, runs)
		}
		if got := int64(mStoreScanBytes.Value() - bytesBefore); got != end {
			t.Fatalf("scan read %d bytes, the watermark is %d", got, end)
		}
		// The row image built over the same log holds the same rows.
		image := scanRowsAll(t, s)
		if len(image) != len(flat) {
			t.Fatalf("ScanRows emitted %d runs, ScanLogs %d", len(image), len(flat))
		}
		for i := range image {
			if !sameRows(image[i], flat[i]) {
				t.Fatalf("run %d: ScanRows %+v, the log's flattening %+v", i, image[i], flat[i])
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != end {
			t.Fatalf("recovery left %d bytes on disk, scanner ends at %d", fi.Size(), end)
		}
		if !bytes.HasPrefix(data, mustRead(t, path)) {
			t.Fatal("recovered log is not a prefix of the input")
		}
	})
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkReadPath puts the read path's floor on record: the cost per
// stored run of a scan and of a point read, beside decodeRecord decoding
// the same bytes from memory (the share no I/O change can remove) and
// encoding/json doing so (the reference the record codec replaced).
func BenchmarkReadPath(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n = 256
	for i := 0; i < n; i++ {
		if err := s.PutRunLog(paddedRun(fmt.Sprintf("run-%03d", i), 2<<10)); err != nil {
			b.Fatal(err)
		}
	}
	data := mustRead(b, filepath.Join(dir, LogFileName))
	lines := bytes.SplitAfter(data, []byte{'\n'})
	lines = lines[:len(lines)-1]
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += n {
			if err := s.ScanLogs(0, func(*provenance.RunLog) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("runlog", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunLog(fmt.Sprintf("run-%03d", i%n)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeRecord(lines[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(lines[i%n], &provenance.RunLog{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
