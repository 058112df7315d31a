package shardedstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/wal"
)

// TestShardCountMismatchRejected asserts a store directory written with
// one shard count refuses to open with another — silently misrouting runs
// was the failure mode the ROADMAP called out.
func TestShardCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 2, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logs := synthLogs(7, 6)
	for _, l := range logs {
		if err := r.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenWith(dir, 4, store.FileOptions{}); err == nil {
		t.Fatal("opened a 2-shard directory with 4 shards")
	} else if !strings.Contains(err.Error(), "2 shards") {
		t.Fatalf("mismatch error not loud about the written count: %v", err)
	}
	if _, err := OpenWith(dir, 1, store.FileOptions{}); err == nil {
		t.Fatal("opened a 2-shard directory with 1 shard")
	}

	// The correct count still opens and sees every run.
	r2, err := OpenWith(dir, 2, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	runs, err := r2.Runs()
	if err != nil || len(runs) != len(logs) {
		t.Fatalf("reopen: %d runs, err %v", len(runs), err)
	}
}

// TestTooManyShardsRejected: the pushdown's probed mask covers maxShards
// shards, so a larger count is refused where it enters — before a directory
// is created for it — not served by a slower path nobody runs.
func TestTooManyShardsRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wide")
	if _, err := OpenWith(dir, maxShards+1, store.FileOptions{}); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("OpenWith(%d shards) = %v, want a shard-count error", maxShards+1, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the rejected open left %s behind (stat: %v)", dir, err)
	}
	if _, err := New(make([]Shard, maxShards+1)); err == nil {
		t.Fatal("New accepted more than maxShards shards")
	}
	r := NewMem(maxShards)
	defer r.Close()
	if r.NumShards() != maxShards {
		t.Fatalf("NewMem(%d) has %d shards", maxShards, r.NumShards())
	}
}

// TestUnshardedDirRejected asserts an unsharded FileStore directory is not
// silently treated as an empty sharded store.
func TestUnshardedDirRejected(t *testing.T) {
	dir := t.TempDir()
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PutRunLog(synthLogs(3, 1)[0]); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if _, err := OpenWith(dir, 2, store.FileOptions{}); err == nil {
		t.Fatal("opened an unsharded store directory as sharded")
	}
}

// TestLegacyLayoutWithoutMetaStillChecked asserts pre-meta directories
// (shard dirs but no router-meta.json) are protected by the directory
// count fallback.
func TestLegacyLayoutWithoutMetaStillChecked(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 3, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := os.Remove(filepath.Join(dir, metaFileName)); err != nil {
		t.Fatal(err)
	}
	if n, unsharded := DetectShards(dir); n != 3 || unsharded {
		t.Fatalf("DetectShards = %d,%v want 3,false", n, unsharded)
	}
	if _, err := OpenWith(dir, 2, store.FileOptions{}); err == nil {
		t.Fatal("legacy layout opened with wrong shard count")
	}
}

// TestRouterCheckpointReopen checkpoints a group-commit sharded store and
// asserts the meta records per-shard positions and a reopen restores the
// exact contents.
func TestRouterCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 2, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	logs := synthLogs(11, 8)
	putAll(t, r, logs, true) // a small connected history would stay on one shard
	wantRuns, _ := r.Runs()
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	meta, ok := loadMeta(t, dir)
	if !ok {
		t.Fatal("no meta after checkpoint")
	}
	if meta.Shards != 2 || len(meta.Checkpoints) != 2 {
		t.Fatalf("meta = %+v", meta)
	}
	for i, off := range meta.Checkpoints {
		if off <= 0 {
			t.Fatalf("shard %d checkpoint offset = %d, want > 0", i, off)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenWith(dir, 2, store.FileOptions{Durability: store.DurabilityGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	gotRuns, err := r2.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRuns, wantRuns) {
		t.Fatalf("reopen runs = %v, want %v", gotRuns, wantRuns)
	}
	for _, id := range entitiesOf(logs) {
		want, werr := store.NaiveClosure(r2, id, store.Up)
		got, gerr := r2.Closure(id, store.Up)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("closure(%s) err mismatch: %v vs %v", id, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(sortedCopyStrings(got), sortedCopyStrings(want)) {
			t.Fatalf("closure(%s) diverged after checkpointed reopen", id)
		}
	}
}

// TestRouterAutoCheckpoint asserts router-wide CheckpointEvery triggers
// shard checkpoints without explicit calls.
func TestRouterAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 2, store.FileOptions{CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, l := range synthLogs(5, 4) {
		if err := r.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	// Auto-checkpoints run off the ingest path; poll briefly for a meta
	// record carrying a shard checkpoint position.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if meta, ok := loadMeta(t, dir); ok {
			for _, off := range meta.Checkpoints {
				if off > 0 {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard recorded a checkpoint position after CheckpointEvery ingests")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sortedCopyStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// loadMeta reads dir's router-meta.json, ok=false when there is none. The
// file must hold exactly what the builds before the binary checkpoints
// wrote, the header line over json.Marshal's payload, so builds on either
// side of that change open each other's sharded directories.
func loadMeta(t *testing.T, dir string) (meta routerMeta, ok bool) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		return meta, false
	}
	payload, ok := wal.DecodeCheckpoint(data)
	if !ok || json.Unmarshal(payload, &meta) != nil {
		t.Fatalf("unreadable %s: %q", metaFileName, data)
	}
	body, _ := json.Marshal(meta)
	if want := fmt.Sprintf("provckpt1 %08x %d\n%s", crc32.ChecksumIEEE(body), len(body), body); string(data) != want {
		t.Fatalf("%s = %q, want %q", metaFileName, data, want)
	}
	return meta, true
}
