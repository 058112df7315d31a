package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func openLog(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "test.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestAppendSequential checks offsets, file contents and metrics for a
// single writer under each policy.
func TestAppendSequential(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNone, SyncBatch} {
		t.Run(policy.String(), func(t *testing.T) {
			f := openLog(t)
			w := NewWriter(f, 0, Options{Policy: policy})
			var want bytes.Buffer
			for i := 0; i < 20; i++ {
				rec := []byte(fmt.Sprintf("rec-%02d\n", i))
				off, err := w.Append(rec)
				if err != nil {
					t.Fatal(err)
				}
				if off != int64(want.Len()) {
					t.Fatalf("append %d: offset %d, want %d", i, off, want.Len())
				}
				want.Write(rec)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("log content mismatch:\n got %q\nwant %q", got, want.Bytes())
			}
			m := w.Metrics()
			if m.Appends != 20 || m.Bytes != uint64(want.Len()) {
				t.Fatalf("metrics = %+v", m)
			}
			// A lone writer's batch is its one append: one fsync each.
			if policy == SyncBatch && m.Syncs != 20 {
				t.Fatalf("SyncBatch issued %d syncs for a lone writer, want 20", m.Syncs)
			}
			if policy == SyncNone && m.Syncs != 0 {
				t.Fatalf("SyncNone issued %d syncs", m.Syncs)
			}
		})
	}
}

// TestGroupCommitCoalesces drives many concurrent appenders through a
// SyncBatch writer and asserts (a) every record lands intact at its
// returned offset and (b) the sync count is well below the append count —
// the whole point of group commit.
func TestGroupCommitCoalesces(t *testing.T) {
	f := openLog(t)
	w := NewWriter(f, 0, Options{Policy: SyncBatch})
	const writers, each = 16, 25
	type placed struct {
		off int64
		rec string
	}
	results := make([][]placed, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := fmt.Sprintf("w%02d-%03d\n", g, i)
				off, err := w.Append([]byte(rec))
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], placed{off, rec})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var all []placed
	for _, rs := range results {
		all = append(all, rs...)
	}
	if len(all) != writers*each {
		t.Fatalf("%d records placed, want %d", len(all), writers*each)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].off < all[j].off })
	var pos int64
	for _, p := range all {
		if p.off != pos {
			t.Fatalf("offset gap: record %q at %d, expected %d", p.rec, p.off, pos)
		}
		end := p.off + int64(len(p.rec))
		if string(data[p.off:end]) != p.rec {
			t.Fatalf("record at %d = %q, want %q", p.off, data[p.off:end], p.rec)
		}
		pos = end
	}
	if pos != int64(len(data)) {
		t.Fatalf("log has %d bytes, records cover %d", len(data), pos)
	}
	m := w.Metrics()
	if m.Appends != writers*each {
		t.Fatalf("appends = %d", m.Appends)
	}
	if m.Syncs >= m.Appends {
		t.Fatalf("group commit did not coalesce: %d syncs for %d appends", m.Syncs, m.Appends)
	}
	t.Logf("coalesced %d appends into %d batches (%d syncs)", m.Appends, m.Batches, m.Syncs)
}

// TestFlushDelayBatches checks that a leader with FlushDelay waits for
// joiners instead of committing a lone record, and that MaxBatchBytes
// seals a batch early.
func TestFlushDelayBatches(t *testing.T) {
	f := openLog(t)
	w := NewWriter(f, 0, Options{Policy: SyncBatch, FlushDelay: 50 * time.Millisecond, MaxBatchBytes: 16})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := w.Append([]byte(fmt.Sprintf("delay-%d\n", g))); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.Appends != 4 {
		t.Fatalf("appends = %d", m.Appends)
	}
	// 8-byte records against a 16-byte cap: at most 2 records per batch,
	// so at least 2 batches; the flush delay should have merged at least
	// one pair.
	if m.Batches < 2 || m.Batches > 4 {
		t.Fatalf("batches = %d, want 2..4 (cap 16 bytes, 4×8-byte records)", m.Batches)
	}
}

// TestCheckpointRoundTrip saves a payload holding every column kind at
// its edges, loads it back, and checks corruption detection, the
// missing-file path and the reader's refusals.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	long := strings.Repeat("x", 2*maxShared)
	ids := []string{"", "r-1", "r-10", "r-1", "e-1", "a-1", "r-2", long + "1", long + "2", long, "", "é", long + "3"}
	ints := []int32{0, -1, 1, math.MaxInt32, math.MinInt32}
	offs := []int64{0, 1169, 2340, 2340, 7, math.MaxInt64, math.MinInt64}
	var w ColumnWriter
	w.Int(math.MinInt64)
	w.Strings(ids)
	w.Ints(ints)
	w.Offsets(offs)
	w.Strings(nil)
	if err := SaveCheckpoint(path, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	payload, ok := LoadCheckpoint(path)
	if !ok {
		t.Fatal("load refused an intact checkpoint")
	}
	r := NewColumnReader(payload)
	if v := r.Int(); v != math.MinInt64 {
		t.Errorf("Int = %d", v)
	}
	if got := r.Strings(); !slices.Equal(got, ids) {
		t.Errorf("Strings = %q, want %q", got, ids)
	}
	if got := r.Ints(); !slices.Equal(got, ints) {
		t.Errorf("Ints = %v, want %v", got, ints)
	}
	if got := r.Offsets(); !slices.Equal(got, offs) {
		t.Errorf("Offsets = %v, want %v", got, offs)
	}
	if got := r.Strings(); len(got) != 0 {
		t.Errorf("empty Strings = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reading every column: %v", err)
	}
	if r.Int(); r.Err() == nil {
		t.Error("a read past the end succeeded")
	}
	if r := NewColumnReader(payload); r.Int() != math.MinInt64 || r.Err() == nil {
		t.Error("a reader stopping short reported no left-over bytes")
	}

	// Payloads a writer never produces.
	for name, cols := range map[string][]byte{
		"count past the bytes left":             {3, 0, 0},
		"suffix past the bytes left":            {1, 0, 5, 'a'},
		"shares more than the previous entry":   {2, 0, 1, 'a', 2 * dictBack, 0},
		"shares with an entry before the first": {2, 0, 1, 'a', dictBack + 1, 0},
		"shares more than maxShared":            append(append([]byte{2, 0, 0xac, 2}, long[:300]...), 0x80, 2*dictBack, 0),
		"int beyond int32":                      {1, 0x80, 0x80, 0x80, 0x80, 0x10},
	} {
		r := NewColumnReader(cols)
		if name == "int beyond int32" {
			r.Ints()
		} else {
			r.Strings()
		}
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Flip a payload byte: the CRC must reject it.
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCheckpoint(path); ok {
		t.Fatal("corrupt checkpoint accepted")
	}

	// Truncated file.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := LoadCheckpoint(path); ok {
		t.Fatal("torn checkpoint accepted")
	}

	// A missing file is no checkpoint.
	if _, ok := LoadCheckpoint(filepath.Join(dir, "nope.json")); ok {
		t.Fatal("missing checkpoint loaded")
	}
}

// TestWriterClosed checks the closed-writer error path.
func TestWriterClosed(t *testing.T) {
	f := openLog(t)
	w := NewWriter(f, 0, Options{Policy: SyncBatch})
	if _, err := w.Append([]byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("y\n")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if _, err := w.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

// TestWriterPoisonedAfterFailedTruncate drives a commit failure whose
// cleanup truncate also fails (a read-only file descriptor fails both):
// the writer must refuse every later append instead of writing over
// bytes it could not truncate — appending there could resurrect a
// rejected record at the next recovery scan.
func TestWriterPoisonedAfterFailedTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path) // read-only: WriteAt and Truncate both fail
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewWriter(f, 0, Options{Policy: SyncBatch})
	if _, err := w.Append([]byte("a\n")); err == nil {
		t.Fatal("append to read-only file succeeded")
	}
	_, err = w.Append([]byte("b\n"))
	if err == nil {
		t.Fatal("append after failed truncate succeeded")
	}
	if !strings.Contains(err.Error(), "truncate after failed commit") {
		t.Fatalf("append after failed truncate returned %q, want the poison error", err)
	}
}

// TestSaveCheckpointSweepsCrashedTemps plants orphan temp files (as a
// crash mid-save would leave) and checks the next save removes them while
// leaving unrelated files alone.
func TestSaveCheckpointSweepsCrashedTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	for _, orphan := range []string{"checkpoint.json.tmp-111", "checkpoint.json.tmp-222"} {
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	other := filepath.Join(dir, "closures.json.tmp-333")
	if err := os.WriteFile(other, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(path + ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("stale temp files survived the save: %v", left)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("unrelated temp file was swept: %v", err)
	}
	if got, ok := LoadCheckpoint(path); !ok || string(got) != "x" {
		t.Fatalf("checkpoint not readable after sweep: ok=%v got=%q", ok, got)
	}
}
