// Package wal is the durability layer under the file-backed stores: a
// group-commit append log plus atomic checkpoint files.
//
// # Group commit
//
// A Writer owns the tail of one append-only log file. Concurrent Append
// calls coalesce under a leader/follower protocol: every appender adds its
// record to the open batch, and the batch's creator is its leader — it
// waits for its turn in the commit order, seals the batch (later appends
// start the next one), writes the whole batch with one positional write
// and, under SyncBatch, one fsync, then wakes the followers. While a
// leader's fsync is in flight the next batch accumulates behind it, so the
// batch size adapts to the storage medium: the slower the sync, the more
// appends each sync amortizes, and a lone writer degenerates to one write
// + one sync per record with no added latency (there is no mandatory timer
// wait). An optional FlushDelay adds a bounded wait for joiners, for media
// where the sync itself is too fast to accumulate a batch.
//
// Batches commit strictly in offset order, so the durable log is always a
// prefix of the accepted appends: after a crash, every record whose Append
// returned is on disk, possibly followed by a partial tail from an
// unacknowledged batch — which the owning store's recovery scan truncates,
// exactly as it truncated torn single appends before group commit.
//
// # Failure handling
//
// A failed write or sync fails every Append in the batch and in every
// batch queued behind it (their offsets assumed the failed bytes),
// truncates the file back to the failed batch's base offset, and resets
// the writer so later appends retry from the truncation point: a rejected
// record is never silently resurrected, matching the single-append discard
// semantics the file store had before this layer existed. If that truncate
// itself fails, the rejected bytes are stuck on disk: the writer corrupts
// the rejected batch's head (so a reopen scan drops the tail at the batch
// base instead of parsing rejected records as valid) and poisons itself —
// every later Append fails — rather than appending over bytes whose
// durable state is unknowable.
package wal

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// Process-wide observability mirrors of the per-writer counters, plus the
// latency/shape histograms only the global registry tracks. Registered
// once; every Writer in the process feeds the same series (provd runs one
// writer per shard — the aggregate is what an operator wants).
var (
	mAppends       = obs.Default().Counter("prov_wal_appends_total", "Records accepted by WAL writers.")
	mBatches       = obs.Default().Counter("prov_wal_batches_total", "Committed group-commit batches (write syscalls).")
	mFsyncs        = obs.Default().Counter("prov_wal_fsyncs_total", "Fsyncs issued by WAL writers.")
	mBytes         = obs.Default().Counter("prov_wal_bytes_total", "Payload bytes committed to WAL logs.")
	mBatchRecords  = obs.Default().ValueHistogram("prov_wal_batch_records", "Records coalesced per committed batch.")
	mCommitSeconds = obs.Default().Histogram("prov_wal_commit_seconds", "Batch commit latency: positional write plus fsync.")
)

// SyncPolicy selects what Append guarantees when it returns.
type SyncPolicy int

const (
	// SyncNone: the record reached the OS (one buffered write per batch);
	// durability is left to the kernel. The cheapest mode.
	SyncNone SyncPolicy = iota
	// SyncBatch: group commit — one fsync per coalesced batch; Append
	// returns once the batch containing its record is on stable storage.
	SyncBatch
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncBatch:
		return "batch"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options tunes a Writer. The zero value is a valid SyncNone writer.
type Options struct {
	// Policy selects the durability guarantee of Append.
	Policy SyncPolicy
	// MaxBatchBytes seals a batch early once its buffered records reach
	// this size (default 1 MiB), bounding commit latency and memory under
	// very large records.
	MaxBatchBytes int
	// FlushDelay, when positive, makes a SyncBatch leader whose batch
	// still holds a single record at its commit turn wait this long for
	// joiners before committing. The default 0 relies purely on
	// commit-latency overlap, which never delays a lone writer.
	FlushDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 1 << 20
	}
	return o
}

// Metrics counts a writer's activity since creation.
type Metrics struct {
	Appends uint64 // records accepted
	Batches uint64 // committed batches (== write syscalls)
	Syncs   uint64 // fsyncs issued
	Bytes   uint64 // payload bytes committed
}

// batch is one group of records committed together.
type batch struct {
	seq    uint64 // commit-order ticket
	base   int64  // file offset of buf[0]
	buf    []byte
	n      int           // records joined
	sealed bool          // no further joins
	full   chan struct{} // closed at seal (wakes a leader in its flush delay)
	done   chan struct{} // closed when committed or failed
	err    error         // set before done closes; nil on success
}

// Writer appends records to one log file with group commit. Safe for
// concurrent use. The writer owns the file tail: all writes are positional
// (WriteAt), so readers may concurrently ReadAt committed regions of the
// same file handle.
type Writer struct {
	f   *os.File
	opt Options

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when the commit ticket advances
	cur     *batch     // open batch accepting joins, nil when none
	pending []*batch   // created, uncommitted batches in seq order
	nextOff int64      // file offset the next record will land at
	nextSeq uint64     // ticket for the next batch
	commits uint64     // next ticket allowed to commit
	closed  bool
	// poisoned is set when the truncate after a failed commit itself
	// fails: the file then still holds rejected bytes past nextOff, and
	// retrying appends over them could let a crash-recovery scan read a
	// stale rejected record as valid (resurrection). Every later Append
	// fails instead.
	poisoned error

	appends, batches, syncs, bytes uint64
}

// NewWriter wraps an open log file whose committed content ends at off.
// The writer assumes exclusive ownership of the file tail from off on.
func NewWriter(f *os.File, off int64, opt Options) *Writer {
	w := &Writer{f: f, opt: opt.withDefaults(), nextOff: off}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Policy reports the writer's sync policy.
func (w *Writer) Policy() SyncPolicy { return w.opt.Policy }

// Metrics snapshots the writer's counters.
func (w *Writer) Metrics() Metrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Metrics{Appends: w.appends, Batches: w.batches, Syncs: w.syncs, Bytes: w.bytes}
}

// Append commits one record and returns the file offset it was written at.
// Under SyncBatch the record is on stable storage when
// Append returns; under SyncNone it has reached the OS. Concurrent Appends
// to the same writer coalesce into shared batches.
func (w *Writer) Append(rec []byte) (int64, error) {
	if len(rec) == 0 {
		return 0, fmt.Errorf("wal: empty record")
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: writer closed")
	}
	if w.poisoned != nil {
		err := w.poisoned
		w.mu.Unlock()
		return 0, err
	}
	b := w.cur
	lead := false
	if b == nil || b.sealed {
		b = &batch{
			seq:  w.nextSeq,
			base: w.nextOff,
			full: make(chan struct{}),
			done: make(chan struct{}),
		}
		w.nextSeq++
		w.cur = b
		w.pending = append(w.pending, b)
		lead = true // the creator leads its batch
	}
	off := b.base + int64(len(b.buf))
	b.buf = append(b.buf, rec...)
	w.nextOff += int64(len(rec))
	w.appends++
	b.n++
	mAppends.Inc()
	if len(b.buf) >= w.opt.MaxBatchBytes && !b.sealed {
		w.sealLocked(b)
	}
	if !lead {
		// Follower: the batch's creator drives the commit.
		w.mu.Unlock()
		<-b.done
		return off, b.err
	}

	// Leader: wait for our turn in the commit order. While we wait —
	// typically for the predecessor batch's fsync — followers keep
	// joining our batch; that overlap is where group commit's batching
	// comes from. A predecessor's failure fails us too (err set).
	for w.commits != b.seq && b.err == nil {
		w.cond.Wait()
	}
	if b.err != nil {
		w.mu.Unlock()
		return 0, b.err
	}
	if !b.sealed && w.opt.Policy == SyncBatch && w.opt.FlushDelay > 0 && len(b.buf) == len(rec) {
		// Still a lone record at our turn: the medium commits faster than
		// writers arrive. Give joiners one bounded window.
		w.mu.Unlock()
		t := time.NewTimer(w.opt.FlushDelay)
		select {
		case <-b.full:
		case <-t.C:
		}
		t.Stop()
		w.mu.Lock()
	}
	w.sealLocked(b)
	buf, base, nrec := b.buf, b.base, b.n
	w.mu.Unlock()

	// Commit outside the lock: one positional write, one optional fsync.
	commitStart := obs.Now()
	_, err := w.f.WriteAt(buf, base)
	if err == nil && w.opt.Policy != SyncNone {
		err = w.f.Sync()
	}

	w.mu.Lock()
	if err != nil {
		if terr := w.f.Truncate(base); terr != nil {
			// The rejected bytes cannot be removed — and after a failed
			// sync they may well be on disk, where a reopen scan would
			// parse a fully-written rejected batch as valid records.
			// Corrupt the batch head (best effort) so the scan stops at
			// base and drops the rejected tail instead, then refuse all
			// further appends: the file's durable state is unknowable. If
			// this write fails too, the residual window is a rejected
			// batch surviving to reopen on a device that failed sync,
			// truncate and write in a row.
			_, _ = w.f.WriteAt([]byte{0}, base)
			w.poisoned = fmt.Errorf("wal: writer unusable: truncate after failed commit: %w (commit error: %v)", terr, err)
		}
		w.failLocked(b, err)
		w.mu.Unlock()
		return 0, b.err
	}
	w.batches++
	w.bytes += uint64(len(buf))
	mBatches.Inc()
	mBytes.Add(uint64(len(buf)))
	mBatchRecords.ObserveValue(uint64(nrec))
	mCommitSeconds.ObserveSince(commitStart)
	if w.opt.Policy != SyncNone {
		w.syncs++
		mFsyncs.Inc()
	}
	w.commits = b.seq + 1
	w.pending = w.pending[1:] // b is always the head: commits are in seq order
	close(b.done)
	w.cond.Broadcast()
	w.mu.Unlock()
	return off, nil
}

// sealLocked closes a batch to further joins; the caller holds w.mu.
func (w *Writer) sealLocked(b *batch) {
	if b.sealed {
		return
	}
	b.sealed = true
	close(b.full)
	if w.cur == b {
		w.cur = nil
	}
}

// failLocked fails a batch after an I/O error, plus every batch queued
// behind it (their offsets assumed the truncated bytes), and resets the
// writer to the failed batch's base offset. The caller holds w.mu and has
// already truncated the file.
func (w *Writer) failLocked(b *batch, err error) {
	b.err = fmt.Errorf("wal: commit batch at offset %d: %w", b.base, err)
	for _, p := range w.pending {
		if p.seq <= b.seq {
			continue
		}
		p.err = fmt.Errorf("wal: predecessor batch failed: %w", err)
		w.sealLocked(p)
		close(p.done)
	}
	close(b.done)
	w.pending = w.pending[:0]
	w.cur = nil
	w.commits = w.nextSeq // every created batch is resolved
	w.nextOff = b.base
	w.cond.Broadcast()
}

// Close drains in-flight batches and marks the writer closed. It does not
// close the file, which the owning store shares with its readers.
func (w *Writer) Close() error {
	w.mu.Lock()
	for len(w.pending) > 0 {
		w.cond.Wait()
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}
