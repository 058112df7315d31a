package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Durability selects what an accepted file-store ingest guarantees:
//
//   - DurabilityNone: the record reached the OS; a power loss may drop it.
//   - DurabilityGroup: group commit — concurrent appends coalesce into
//     batches committed with a single buffered write + one fsync each
//     (internal/store/wal), so an accepted ingest survives power loss and
//     N concurrent writers share ~one fsync instead of paying N. A lone
//     writer's batch is its one append, so it pays one fsync per run.
type Durability int

// Durability modes, ordered by increasing write-path cost per append.
const (
	DurabilityNone Durability = iota
	DurabilityGroup
)

// String implements fmt.Stringer with the wire form used by CLI flags.
func (d Durability) String() string {
	switch d {
	case DurabilityNone:
		return "none"
	case DurabilityGroup:
		return "group"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// ParseDurability maps the CLI flag form ("none", "group") to a
// Durability.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "none":
		return DurabilityNone, nil
	case "group":
		return DurabilityGroup, nil
	}
	return 0, fmt.Errorf("store: unknown durability %q (want none or group)", s)
}

// FileOptions configures a file-backed store's durability and checkpoint
// behavior. The zero value is the historical OpenFileStore behavior: no
// fsync, no automatic checkpoints.
type FileOptions struct {
	// Durability selects the append commit guarantee.
	Durability Durability
	// CheckpointEvery, when positive, writes a checkpoint automatically
	// after every N accepted ingests (on a follower, N applied runs),
	// bounding reopen replay to the last N runs' log suffix.
	CheckpointEvery int
	// GroupFlushDelay, when positive, lets a group-commit leader whose
	// batch holds a single record wait this long for joiners — useful on
	// media whose fsync is too fast for commit-latency overlap to batch.
	// 0 (default) batches purely by overlapping the in-flight commit.
	GroupFlushDelay time.Duration
}

// Checkpointer is the checkpoint method of every Store: snapshot folded
// state next to the log so a reopen replays only the log suffix. FileStore
// writes its entity table; the sharded router checkpoints its file shards
// and writes a manifest record; the closure cache checkpoints the store it
// wraps, then persists its own entries; MemStore and TripleStore have no
// log, and theirs is a no-op. The standing-query tap and the
// router's trace shim inherit the checkpoint of the store they wrap.
type Checkpointer interface {
	// Checkpoint writes a consistent snapshot to stable storage. It is
	// safe to call concurrently with reads and ingests; ingests admitted
	// after the snapshot point are simply replayed at the next reopen.
	Checkpoint() error
}

// AutoCheckpoint triggers a background best-effort checkpoint every N
// accepted ingests, at most one in flight: the shared single-flight
// discipline of FileStore, the sharded router and the closure cache. The
// in-flight goroutine is tracked, and owners call Drain from their Close
// paths so a background checkpoint never fsyncs or writes against files
// the owner has already closed. A nil trigger (or n <= 0) never fires.
type AutoCheckpoint struct {
	every uint64
	count atomic.Uint64

	mu     sync.Mutex
	busy   bool
	closed bool
	wg     sync.WaitGroup
}

// NewAutoCheckpoint returns a trigger firing every N ingests (n <= 0:
// never).
func NewAutoCheckpoint(n int) *AutoCheckpoint {
	return &AutoCheckpoint{every: uint64(max(n, 0))}
}

// Tick counts one accepted ingest and, every N-th, runs checkpoint in a
// background goroutine unless one is already in flight or the trigger has
// been drained. Failures are dropped: the log is authoritative, a skipped
// snapshot only costs reopen time.
func (t *AutoCheckpoint) Tick(checkpoint func() error) {
	if t == nil || t.every == 0 || t.count.Add(1)%t.every != 0 {
		return
	}
	t.mu.Lock()
	if t.closed || t.busy {
		t.mu.Unlock()
		return
	}
	t.busy = true
	t.wg.Add(1)
	t.mu.Unlock()
	go func() {
		defer t.wg.Done()
		_ = checkpoint()
		t.mu.Lock()
		t.busy = false
		t.mu.Unlock()
	}()
}

// Drain stops future automatic checkpoints and waits for any in-flight
// one, so the owner can close the files a checkpoint touches. Safe on a
// nil trigger and idempotent.
func (t *AutoCheckpoint) Drain() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
}
