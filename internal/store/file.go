package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store/wal"
)

// FileStore observability: per-operation latency across every instance in
// the process (one per shard under the router), ingest outcomes, and the
// work of the record read path (single-record loads and sequential scans).
var (
	mStoreIngests       = obs.Default().Counter("prov_store_ingest_total", "Run logs accepted by file stores.")
	mStoreIngestErrors  = obs.Default().Counter("prov_store_ingest_errors_total", "Run-log ingests rejected (validation, duplicate, I/O).")
	mStoreIngestSeconds = obs.Default().Histogram("prov_store_ingest_seconds", "FileStore PutRunLog latency: validate, append, index fold.")
	mStoreClosureSecs   = obs.Default().Histogram("prov_store_closure_seconds", "FileStore transitive-closure latency on the resident entity table.")
	mStoreExpandSecs    = obs.Default().Histogram("prov_store_expand_seconds", "FileStore one-hop Expand latency.")
	mStoreLoadSeconds   = obs.Default().Histogram("prov_store_runlog_load_seconds", "FileStore single-record load latency: positional read plus record decode (RunLog, Entities).")
	mStoreScanRecords   = obs.Default().Counter("prov_store_scan_records_total", "Run-log records decoded by FileStore sequential scans.")
	mStoreScanBytes     = obs.Default().Counter("prov_store_scan_bytes_total", "Log bytes read by FileStore sequential scans.")
	mStoreRecovered     = obs.Default().Counter("prov_store_recovered_records_total", "Run-log records decoded by FileStore open-time recovery (the log suffix past the checkpoint, or the whole log without one).")
)

// FileStore persists run logs to an append-only JSON-lines file, the
// file-dialect storage approach (§2.2: "XML dialects that are stored as
// files"). An in-memory index maps run IDs to byte offsets, and one
// resident entity table (entityTable) — rebuilt at open/ingest time from
// the same records — maps every entity ID to a dense handle and a record
// of its kind, owning runs, generator and neighbour lists. It serves graph
// navigation (Expand, Closure, CloseLocal) without re-reading the log: a
// traversal hashes each ID that enters it once, walks integer handles with
// a pooled visited array, and allocates only the strings it returns, so
// closure queries perform zero disk reads after open and a constant number
// of allocations.
//
// Full-entity and run-log retrieval read the owning record from disk
// through one read path. A single record (RunLog, or an owning run of an
// Entities batch) is a positional read of about the record's own length
// followed by one JSON decode; a whole-store pass (ScanLogs) streams the
// committed prefix [0, size) through one buffer sized to the data,
// decoding record by record. Both hold the store lock only to look up the
// record offset and the fold watermark: bytes below the watermark are
// immutable (appends land above it, and a failed WAL batch truncates only
// above it), so the read, the decode and any caller-supplied callback run
// outside the lock and never stall an ingest fold. A decoded record is not
// retained: the cost of retrieval is the decode (decodeRecord, 3–8 µs per
// KB of record), not the I/O around it.
//
// Relational scans (ScanRows: PQL, Datalog and QBE leaf scans) read a
// row image instead (rowimage.go): the flattening (Rows) of the committed
// prefix, built in memory by the first such scan and extended by each
// later one with the records folded since. Since the prefix never changes
// the image is never invalidated, so a repeated query decodes nothing; it
// is neither persisted nor built by ingest, recovery or Checkpoint.
//
// Appends go through a write-ahead group-commit writer (internal/store/
// wal): under DurabilityGroup, concurrent PutRunLog calls coalesce into
// batches sharing one fsync; under DurabilityNone nothing syncs. Index
// reads take a shared lock, so concurrent closure sweeps never serialize
// against each other — only against the brief index fold of each accepted
// ingest.
//
// Reopening a store directory rebuilds the indexes by scanning the log,
// truncating any torn trailing record (crash recovery); a truncated record
// is never indexed, so the entity table stays consistent with the
// surviving bytes. When a checkpoint file is present (see Checkpoint and
// fileCheckpoint for its format), the scan starts at the checkpointed
// offset instead of zero: the snapshot restores the folded indexes and
// only the log suffix replays, making restarts O(suffix) instead of
// O(history). A checkpoint this version cannot read — torn, corrupt, or
// written in an earlier format (fileCheckpointVersion) — is no checkpoint:
// the open falls back to the full scan and the next Checkpoint overwrites
// it. The pre-checkpoint prefix is never read at open — only index recovery
// is prefix-free; full-record retrieval (RunLog, Entities) still
// reads the owning record's bytes, so archiving the prefix sacrifices
// retrieval of those runs while navigation and closures stay fully served.
// That recovery is the only decoding an open does, under a sharded router
// too (prov_store_recovered_records_total counts it): the router learns
// which shard holds what from the recovered table (EntityOwners), which is
// why an entity records the run that set its generator as well as the runs
// that own it.
type FileStore struct {
	mu  sync.RWMutex
	dir string
	f   *os.File
	opt FileOptions
	w   *wal.Writer

	offsets map[string]int64 // runID -> byte offset
	order   []string         // runIDs in log-offset order
	size    int64            // contiguous fold watermark: every record below is indexed

	// Fold coordination: WAL commits are in offset order, but writers
	// re-acquire the store lock in arbitrary order, so committed records
	// queue here and fold strictly at the watermark — the in-memory
	// index always equals a replay of the log prefix [0, size), which is
	// what recover() reproduces and what a checkpoint snapshots.
	pending   map[string]bool      // run IDs reserved by in-flight ingests
	foldQueue map[int64]*foldEntry // committed, not-yet-indexed records by offset
	foldCond  *sync.Cond           // watermark advance
	autoCkpt  *AutoCheckpoint
	lastCkpt  int64 // LogOffset of the last checkpoint written (-1: none)

	// Resident entity table: navigation never touches disk. Owning runs
	// are tracked per kind so an ID stored as an artifact by one run and as
	// an execution by another keeps both entities addressable, with
	// artifact classification winning for traversal (matching the other
	// backends).
	tab *entityTable

	// The relational flattening of the committed prefix, built by the
	// first ScanRows (rowimage.go); it has its own lock.
	rows rowImage

	// Resident counters so Stats does not re-read the log.
	nEvents int
	nAnns   int
}

// LogFileName is the append-only run-log file inside a FileStore
// directory; tools (and the sharded router's layout detection) key on it.
const LogFileName = "provlog.jsonl"

// checkpointFileName holds the FileStore's folded-state snapshot. The
// name is kept from the JSON formats: a new one would leave the old file
// behind in every upgraded directory, counted against disk twice.
const checkpointFileName = "checkpoint.json"

// CheckpointPath returns the checkpoint file a FileStore rooted at dir
// writes; tools and tests remove it to force a full-scan reopen.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointFileName) }

// OpenFileStore opens (or creates) a file store rooted at dir with no
// fsync on append — the historical default.
func OpenFileStore(dir string) (*FileStore, error) {
	return OpenFileStoreWith(dir, FileOptions{})
}

// OpenFileStoreWith opens (or creates) a file store rooted at dir with
// explicit durability and checkpoint configuration, loading a checkpoint
// snapshot when one is present so only the log suffix replays.
func OpenFileStoreWith(dir string, opt FileOptions) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	path := filepath.Join(dir, LogFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &FileStore{
		dir:       dir,
		f:         f,
		opt:       opt,
		offsets:   map[string]int64{},
		pending:   map[string]bool{},
		foldQueue: map[int64]*foldEntry{},
		autoCkpt:  NewAutoCheckpoint(opt.CheckpointEvery),
		lastCkpt:  -1,
		tab:       newEntityTable(),
	}
	s.foldCond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	policy := wal.SyncNone
	if opt.Durability == DurabilityGroup {
		policy = wal.SyncBatch
	}
	s.w = wal.NewWriter(f, s.size, wal.Options{Policy: policy, FlushDelay: opt.GroupFlushDelay})
	return s, nil
}

// recover restores the indexes: from the checkpoint snapshot when a valid
// one exists (replaying only the log suffix past its offset), otherwise by
// scanning the whole log. A torn trailing record is truncated; only
// records surviving truncation reach index(), so the entity table never
// holds edges from torn bytes.
func (s *FileStore) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat log: %w", err)
	}
	logSize := fi.Size()

	var from int64
	payload, _ := wal.LoadCheckpoint(filepath.Join(s.dir, checkpointFileName)) // none decodes as no version
	if ck, ok := decodeFileCheckpoint(payload); ok && ck.LogOffset <= logSize && s.alignedOffset(ck.LogOffset) && s.restore(ck) {
		// The snapshot is authoritative for the prefix: it is restored and
		// only the suffix replays. The prefix bytes are never read here.
		s.lastCkpt = ck.LogOffset
		from = ck.LogOffset
	}
	// A checkpoint claiming more log than exists, or an offset that does
	// not land on a record boundary, is stale (the log was replaced or
	// truncated by hand), and one that fails restore's checks is not a
	// snapshot of any log: fall back to the full scan with fresh state,
	// which the zero `from` above already encodes. Without the boundary
	// check a misaligned suffix scan would misparse its first line and
	// truncate valid records — the log is authoritative, so a suspect
	// checkpoint must never cost log bytes.

	r := bufio.NewReaderSize(io.NewSectionReader(s.f, from, logSize-from), int(min(logSize-from, 1<<20)))
	offset := from
	records := 0
	defer func() { mStoreRecovered.Add(uint64(records)) }()
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// Torn write: truncate the partial record.
				if terr := s.f.Truncate(offset); terr != nil {
					return fmt.Errorf("store: truncate torn record: %w", terr)
				}
			}
			break
		}
		if err != nil {
			return fmt.Errorf("store: scan log: %w", err)
		}
		// A record decodeRecord refuses (no JSON, no run ID) is corrupt:
		// stop indexing here and truncate the remainder (append-only logs
		// are valid up to the first tear). One its fast path refuses but
		// encoding/json accepts is a valid record and is kept.
		l, derr := decodeRecord(line)
		if derr != nil {
			if terr := s.f.Truncate(offset); terr != nil {
				return fmt.Errorf("store: truncate corrupt record: %w", terr)
			}
			break
		}
		s.index(l, offset)
		records++
		offset += int64(len(line))
	}
	s.size = offset
	// A replay grew the entity records by append; a store that is only
	// read after open would keep the growth slack (up to a quarter of the
	// records) for its lifetime.
	if cap(s.tab.ents) > len(s.tab.ents) {
		s.tab.ents = slices.Clone(s.tab.ents)
	}
	return nil
}

// alignedOffset reports whether a checkpoint offset sits on a record
// boundary of the current log: zero, or immediately after a newline.
func (s *FileStore) alignedOffset(off int64) bool {
	if off == 0 {
		return true
	}
	var b [1]byte
	if _, err := s.f.ReadAt(b[:], off-1); err != nil {
		return false
	}
	return b[0] == '\n'
}

// index records a run log's offset and folds its entities and events into
// the resident entity table. Called from the fold queue and recover only,
// with complete (non-torn) records.
func (s *FileStore) index(l *provenance.RunLog, offset int64) {
	s.offsets[l.Run.ID] = offset
	s.tab.fold(l, int32(len(s.order)))
	s.order = append(s.order, l.Run.ID)
	s.nEvents += len(l.Events)
	s.nAnns += len(l.Annotations)
}

var _ Store = (*FileStore)(nil)
var _ LocalCloser = (*FileStore)(nil)

// Name implements Store.
func (s *FileStore) Name() string { return "file" }

// Durability reports the store's append commit guarantee.
func (s *FileStore) Durability() Durability { return s.opt.Durability }

// WALMetrics snapshots the append log's counters — appends, batches and
// fsyncs — the observable group-commit tests assert batching on.
func (s *FileStore) WALMetrics() wal.Metrics { return s.w.Metrics() }

// foldEntry is one WAL-committed record waiting for its turn at the fold
// watermark.
type foldEntry struct {
	l   *provenance.RunLog
	end int64
}

// PutRunLog implements Store. Validation and encoding run outside the
// store lock; the append itself goes through the group-commit writer, so
// concurrent writers coalesce into shared batches (one fsync per batch
// under DurabilityGroup) instead of serializing their commits. The store
// lock covers only the duplicate-ID reservation and, after the WAL
// acknowledges the batch, the index fold — performed in strict log-offset
// order via the watermark queue, so the live index, a checkpoint snapshot
// and a reopen replay all agree on last-write-wins tie-breaks and Runs()
// order even when writers re-acquire the lock out of commit order.
func (s *FileStore) PutRunLog(l *provenance.RunLog) error {
	start := obs.Now()
	if err := s.putRunLog(l); err != nil {
		mStoreIngestErrors.Inc()
		return err
	}
	mStoreIngests.Inc()
	mStoreIngestSeconds.ObserveSince(start)
	return nil
}

func (s *FileStore) putRunLog(l *provenance.RunLog) error {
	if err := l.Validate(); err != nil {
		return err
	}
	data, err := encodeRecord(l)
	if err != nil {
		return fmt.Errorf("store: encode run %s: %w", l.Run.ID, err)
	}

	// Reserve the run ID so concurrent duplicates cannot both commit.
	s.mu.Lock()
	if s.pending[l.Run.ID] {
		s.mu.Unlock()
		return fmt.Errorf("store: run %q already stored", l.Run.ID)
	}
	if _, dup := s.offsets[l.Run.ID]; dup {
		s.mu.Unlock()
		return fmt.Errorf("store: run %q already stored", l.Run.ID)
	}
	s.pending[l.Run.ID] = true
	s.mu.Unlock()

	off, werr := s.w.Append(data)

	s.mu.Lock()
	if werr != nil {
		delete(s.pending, l.Run.ID)
		s.mu.Unlock()
		return fmt.Errorf("store: append run %s: %w", l.Run.ID, werr)
	}
	end := off + int64(len(data))
	s.foldQueue[off] = &foldEntry{l: l, end: end}
	s.foldTo(end)
	// Release the duplicate reservation only now, in the same lock hold
	// that saw our record folded: offsets[runID] is set, so the dup guard
	// hands off from pending to offsets with no window in between. While
	// we waited at the watermark the record was committed but not yet in
	// offsets — dropping pending back then would let a concurrent retry of
	// the same run ID pass both guards and commit the run twice.
	delete(s.pending, l.Run.ID)
	s.mu.Unlock()
	s.autoCkpt.Tick(s.Checkpoint)
	return nil
}

// foldTo folds every queued record contiguous at the watermark, wakes
// the writers waiting on it, and waits until the watermark reaches end.
// A successful append at offset X implies every lower offset's append
// also succeeded (WAL batches commit in order and a failure poisons all
// successors), and each of those writers is past its Append return, so
// any gap below end is filled by a writer that is about to take this
// lock: the wait always terminates. The caller holds s.mu.
func (s *FileStore) foldTo(end int64) {
	advanced := false
	for {
		fe, ok := s.foldQueue[s.size]
		if !ok {
			break
		}
		delete(s.foldQueue, s.size)
		s.index(fe.l, s.size)
		s.size = fe.end
		advanced = true
	}
	if advanced {
		s.foldCond.Broadcast()
	}
	for s.size < end {
		s.foldCond.Wait()
	}
}

// Checkpoint implements Store. The watermark invariant makes any
// instant a consistent snapshot point — every record below s.size is
// folded — so the snapshot copies the state under a read lock (readers
// proceed, writers wait only for the copy), then the log is fsynced up to
// the snapshot and the checkpoint file atomically installed, all outside
// any lock.
func (s *FileStore) Checkpoint() error {
	s.mu.RLock()
	ck := s.snapshotLocked()
	s.mu.RUnlock()

	// The snapshot covers only bytes written before their Append returned,
	// which happened before the snapshot was taken: syncing now makes the
	// whole covered prefix durable before the checkpoint claims it.
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: checkpoint sync: %w", err)
	}
	if err := wal.SaveCheckpoint(filepath.Join(s.dir, checkpointFileName), ck.encode()); err != nil {
		return err
	}
	s.mu.Lock()
	if ck.LogOffset > s.lastCkpt {
		s.lastCkpt = ck.LogOffset
	}
	s.mu.Unlock()
	return nil
}

// LastCheckpoint reports the log offset covered by the most recent
// checkpoint (loaded or written), ok=false when none exists.
func (s *FileStore) LastCheckpoint() (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastCkpt, s.lastCkpt >= 0
}

// recordChunk is the first positional read of a single-record load: it
// covers a typical run log (1–7 KB) in one pread, and a longer record
// grows the buffer geometrically from there.
const recordChunk = 8 << 10

// scanChunk caps the sequential scanner's read buffer. A committed prefix
// shorter than this is read whole in one pread; a record longer than the
// buffer grows it.
const scanChunk = 256 << 10

// loadAt reads and decodes the record starting at off, which the caller
// looked up (with the watermark end) under the store lock. It takes no
// lock itself: [off, end) lies below the fold watermark, where bytes never
// change, and the read is positional, so it neither races the WAL writer's
// appends nor blocks a pending fold for the length of a decode.
func (s *FileStore) loadAt(off, end int64) (*provenance.RunLog, error) {
	start := obs.Now()
	buf := make([]byte, 0, recordChunk)
	for {
		n := len(buf)
		m := min(int64(cap(buf)-n), end-off-int64(n))
		if m <= 0 {
			return nil, fmt.Errorf("store: record at offset %d: no terminator below the watermark %d", off, end)
		}
		buf = buf[:n+int(m)]
		if _, err := s.f.ReadAt(buf[n:], off+int64(n)); err != nil {
			return nil, fmt.Errorf("store: read record at offset %d: %w", off, err)
		}
		if i := bytes.IndexByte(buf[n:], '\n'); i >= 0 {
			buf = buf[:n+i+1]
			break
		}
		buf = slices.Grow(buf, cap(buf))
	}
	// Every RunLog and Entities call decodes here.
	l, err := decodeRecord(buf)
	if err != nil {
		return nil, fmt.Errorf("store: decode record at offset %d: %w", off, err)
	}
	mStoreLoadSeconds.ObserveSince(start)
	return l, nil
}

// RunLog implements Store.
func (s *FileStore) RunLog(runID string) (*provenance.RunLog, error) {
	s.mu.RLock()
	off, ok := s.offsets[runID]
	end := s.size
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	return s.loadAt(off, end)
}

// Runs implements Store.
func (s *FileStore) Runs() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...), nil
}

// ScanLogs implements Store: it snapshots the fold watermark, then
// streams the committed prefix from the skip-th record through one read
// buffer, decoding record by record. The store lock is held only for the
// snapshot, so a scan (or a caller parked in fn) never delays an ingest;
// records folded after the snapshot are not surfaced, and neither is
// anything above the watermark (in-flight appends, a torn tail).
func (s *FileStore) ScanLogs(skip int, fn func(*provenance.RunLog) error) error {
	s.mu.RLock()
	end := s.size
	from := end
	switch {
	case skip <= 0:
		from = 0
	case skip < len(s.order):
		from = s.offsets[s.order[skip]]
	}
	s.mu.RUnlock()
	return s.scanRange(from, end, func(l *provenance.RunLog, _ int64) error { return fn(l) })
}

// scanRange decodes the records of [from, end), which must lie below the
// fold watermark and start on a record boundary, and calls fn with each
// and the offset just past it. It takes no lock: those bytes never change.
// Whole-store scans and the row image's catch-up both decode here.
func (s *FileStore) scanRange(from, end int64, fn func(l *provenance.RunLog, next int64) error) error {
	buf := make([]byte, min(end-from, scanChunk))
	n := 0       // buf[:n] holds unconsumed log bytes
	pos := from  // file offset just past buf[:n]
	records := 0 // decoded so far
	defer func() {
		mStoreScanRecords.Add(uint64(records))
		mStoreScanBytes.Add(uint64(pos - from))
	}()
	for pos < end {
		m := min(int64(len(buf)-n), end-pos)
		if _, err := s.f.ReadAt(buf[n:n+int(m)], pos); err != nil {
			return fmt.Errorf("store: scan log at offset %d: %w", pos, err)
		}
		n += int(m)
		pos += m
		done := 0 // buf[:done] is decoded
		for {
			i := bytes.IndexByte(buf[done:n], '\n')
			if i < 0 {
				break
			}
			l, err := decodeRecord(buf[done : done+i+1])
			if err != nil {
				return fmt.Errorf("store: decode record at offset %d: %w", pos-int64(n-done), err)
			}
			records++
			done += i + 1
			if err := fn(l, pos-int64(n-done)); err != nil {
				return err
			}
		}
		if done == 0 && n == len(buf) {
			// One record longer than the buffer: grow until it fits.
			buf = append(buf, make([]byte, len(buf))...)
			continue
		}
		n = copy(buf, buf[done:n])
	}
	if n > 0 {
		return fmt.Errorf("store: scan log: watermark %d is not a record boundary", end)
	}
	return nil
}

// EntityOwners calls fn once per ID in the resident entity table with the
// runs that own it, as indexes into Runs(): the last run that declared it
// as an artifact, the last that declared it as an execution, and the run
// whose generation event named its current generator, -1 for each the ID
// has none of. It is how the sharded router learns which shard holds what
// without reading a log. fn runs under the store's read lock and must not
// call back into the store.
func (s *FileStore) EntityOwners(fn func(id string, artRun, execRun, genRun int32)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.tab.ents {
		e := &s.tab.ents[i]
		genRun := noRun
		if e.gen[0] != noGen {
			genRun = e.genRun
		}
		fn(e.id, e.artRun, e.execRun, genRun)
	}
}

// runOffsetLocked resolves an owning run from the entity table to its
// record's log offset, ok=false for noRun; the caller holds at least a
// read lock.
func (s *FileStore) runOffsetLocked(run int32) (int64, bool) {
	if run == noRun {
		return 0, false
	}
	return s.offsets[s.order[run]], true
}

// Entities implements Store: every ID's kind and owning run
// resolve from the resident entity table under one lock hold, then each
// distinct owning record is read and decoded once.
func (s *FileStore) Entities(ids []string) ([]Entity, error) {
	type ref struct {
		i    int
		exec bool
	}
	byOff := map[int64][]ref{}
	var offs []int64 // distinct owning records, first-reference order
	s.mu.RLock()
	end := s.size
	for i, id := range ids {
		run, execRun := s.tab.owners(id)
		isArt := run != noRun
		if !isArt {
			run = execRun
		}
		off, ok := s.runOffsetLocked(run)
		if !ok {
			continue
		}
		if _, seen := byOff[off]; !seen {
			offs = append(offs, off)
		}
		byOff[off] = append(byOff[off], ref{i, !isArt})
	}
	s.mu.RUnlock()

	out := make([]Entity, len(ids))
	for _, off := range offs {
		l, err := s.loadAt(off, end)
		if err != nil {
			return nil, err
		}
		for _, r := range byOff[off] {
			if r.exec {
				out[r.i].Execution = l.Execution(ids[r.i])
			} else {
				out[r.i].Artifact = l.Artifact(ids[r.i])
			}
		}
	}
	return out, nil
}

// Expand implements Store: the whole frontier is served from the resident
// table under one shared-lock acquisition, zero disk reads.
func (s *FileStore) Expand(ids []string, dir Direction) (map[string][]string, error) {
	start := obs.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := s.tab.expand(ids, dir)
	mStoreExpandSecs.ObserveSince(start)
	return out, nil
}

// Closure implements Store: the full BFS runs over table handles under a
// shared lock — zero disk reads after open, and concurrent closure sweeps
// proceed in parallel instead of queueing on one mutex.
func (s *FileStore) Closure(seed string, dir Direction) ([]string, error) {
	start := obs.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.tab.lookup(seed)
	if e == nil {
		return nil, fmt.Errorf("%w: entity %q", ErrNotFound, seed)
	}
	out := s.tab.closure(e, dir)
	mStoreClosureSecs.ObserveSince(start)
	return out, nil
}

// CloseLocal implements LocalCloser: the local fixpoint runs over table
// handles under one shared-lock acquisition, zero disk reads (the sharded
// router's closure-pushdown primitive).
func (s *FileStore) CloseLocal(w *LocalWalk, seeds []string, dir Direction) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.close(s.tab, seeds, dir)
}

// Stats implements Store, answered from resident counters.
func (s *FileStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Runs:        len(s.order),
		Executions:  s.tab.nExec,
		Artifacts:   s.tab.nArt,
		Events:      s.nEvents,
		Annotations: s.nAnns,
		Bytes:       s.size,
	}, nil
}

// Close implements Store, draining any in-flight auto-checkpoint and the
// append pipeline before closing the log file.
func (s *FileStore) Close() error {
	s.autoCkpt.Drain()
	_ = s.w.Close()
	s.dropRows()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
