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
	// after every N accepted ingests, bounding reopen replay to the last
	// N runs' log suffix.
	CheckpointEvery int
	// CheckpointInterval, when positive, also checkpoints at most once
	// per interval whenever ingests arrived since the last snapshot, so
	// a slow-but-steady writer still bounds reopen replay (and follower
	// catch-up) by time, not only by run count.
	CheckpointInterval time.Duration
	// CheckpointBytes, when positive, also checkpoints after that many
	// appended log bytes, bounding replay by log volume when records are
	// large. Applies to single file stores, which know their append
	// sizes; the sharded router's router-wide trigger counts runs and
	// time only.
	CheckpointBytes int64
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

// CheckpointPolicy says when an AutoCheckpoint fires. Any combination of
// triggers may be set; each fires independently and a single background
// snapshot satisfies all of them. The zero policy never fires.
type CheckpointPolicy struct {
	// EveryRuns fires after every N accepted ingests (<= 0: off).
	EveryRuns int
	// EveryBytes fires after that many appended log bytes (<= 0: off).
	EveryBytes int64
	// Interval fires at most once per interval, and only when ingests
	// arrived since the last snapshot (<= 0: off).
	Interval time.Duration
}

func (p CheckpointPolicy) enabled() bool {
	return p.EveryRuns > 0 || p.EveryBytes > 0 || p.Interval > 0
}

// AutoCheckpoint triggers a background best-effort checkpoint on a
// runs/bytes/interval policy, at most one in flight: the shared
// single-flight discipline of FileStore, the sharded router and the
// closure cache. The in-flight goroutine is tracked, and owners call
// Drain from their Close paths so a background checkpoint never fsyncs
// or writes against files the owner has already closed. The zero value
// (or an empty policy) never fires.
type AutoCheckpoint struct {
	policy CheckpointPolicy
	count  atomic.Uint64
	bytes  atomic.Int64

	mu     sync.Mutex
	busy   bool
	closed bool
	timer  *time.Timer
	wg     sync.WaitGroup
}

// NewAutoCheckpoint returns a trigger firing every N ingests (n <= 0:
// never).
func NewAutoCheckpoint(n int) *AutoCheckpoint {
	return NewAutoCheckpointPolicy(CheckpointPolicy{EveryRuns: n})
}

// NewAutoCheckpointPolicy returns a trigger with the full policy.
func NewAutoCheckpointPolicy(p CheckpointPolicy) *AutoCheckpoint {
	return &AutoCheckpoint{policy: p}
}

// Tick counts one accepted ingest of the given appended size and, when a
// policy trigger trips, runs checkpoint in a background goroutine unless
// one is already in flight or the trigger has been drained. The interval
// trigger arms a timer on the first ingest after a snapshot, so an idle
// store never checkpoints on a clock. Failures are dropped: the log is
// authoritative, a skipped snapshot only costs reopen time.
func (t *AutoCheckpoint) Tick(bytes int64, checkpoint func() error) {
	if t == nil || !t.policy.enabled() {
		return
	}
	fire := false
	if n := t.policy.EveryRuns; n > 0 && t.count.Add(1)%uint64(n) == 0 {
		fire = true
	}
	if max := t.policy.EveryBytes; max > 0 && bytes > 0 {
		if n := t.bytes.Add(bytes); n >= max {
			// Concurrent adders may each see the threshold; the busy
			// guard collapses them into one snapshot, and a lost count
			// only delays the next byte trigger by one record.
			t.bytes.Add(-n)
			fire = true
		}
	}
	if fire {
		t.launch(checkpoint)
		return
	}
	if t.policy.Interval > 0 {
		t.arm(checkpoint)
	}
}

// launch starts one background checkpoint unless one is in flight or the
// trigger is drained.
func (t *AutoCheckpoint) launch(checkpoint func() error) {
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

// arm schedules an interval checkpoint if none is pending: dirty-state
// tracking falls out of the arming discipline itself (a timer exists iff
// an ingest arrived since it last fired).
func (t *AutoCheckpoint) arm(checkpoint func() error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.timer != nil {
		return
	}
	t.timer = time.AfterFunc(t.policy.Interval, func() {
		t.mu.Lock()
		t.timer = nil
		t.mu.Unlock()
		t.launch(checkpoint)
	})
}

// Drain stops future automatic checkpoints (including a pending interval
// timer) and waits for any in-flight one, so the owner can close the
// files a checkpoint touches. Safe on a nil trigger and idempotent.
func (t *AutoCheckpoint) Drain() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closed = true
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.mu.Unlock()
	t.wg.Wait()
}
