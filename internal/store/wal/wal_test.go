package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// TestCheckpointRoundTrip exercises save/load, corruption detection and
// the missing-file path.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	type payload struct {
		N     int
		Names []string
	}
	in := payload{N: 42, Names: []string{"a", "b"}}
	if err := SaveCheckpoint(path, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := LoadCheckpoint(path, &out)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if out.N != in.N || len(out.Names) != 2 {
		t.Fatalf("round trip = %+v", out)
	}

	// Flip a payload byte: the CRC must reject it.
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := LoadCheckpoint(path, &out); ok || err != nil {
		t.Fatalf("corrupt checkpoint accepted: ok=%v err=%v", ok, err)
	}

	// Truncated file.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, _ := LoadCheckpoint(path, &out); ok {
		t.Fatal("torn checkpoint accepted")
	}

	// Missing file is not an error.
	if ok, err := LoadCheckpoint(filepath.Join(dir, "nope.json"), &out); ok || err != nil {
		t.Fatalf("missing checkpoint: ok=%v err=%v", ok, err)
	}
	if err := RemoveCheckpoint(filepath.Join(dir, "nope.json")); err != nil {
		t.Fatal(err)
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
	if err := SaveCheckpoint(path, map[string]int{"x": 1}); err != nil {
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
	var got map[string]int
	if ok, err := LoadCheckpoint(path, &got); err != nil || !ok || got["x"] != 1 {
		t.Fatalf("checkpoint not readable after sweep: ok=%v err=%v got=%v", ok, err, got)
	}
}
