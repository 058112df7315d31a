package store

import (
	"bytes"
	"fmt"

	"repro/internal/provenance"
)

// Log shipping primitives. A FileStore's append log is already a durable,
// prefix-consistent record stream: the fold watermark s.size marks a byte
// position below which every record is committed, indexed and stable
// (failed WAL batches only ever truncate bytes at or above the watermark).
// Replication ships that prefix verbatim: a primary serves record-aligned
// chunks of [0, size) with ReadCommitted, and a follower appends them
// byte-for-byte with ApplyReplicated, so the follower's log is at every
// moment an exact prefix of the primary's and its own size doubles as its
// replication position — resuming after a crash is just "stream from my
// local committed size", with torn tails healed by the ordinary reopen
// truncation scan.

// Dir returns the directory the store is rooted at, so replication
// tooling can address its sidecar files (checkpoint snapshot).
func (s *FileStore) Dir() string { return s.dir }

// CommittedOffset returns the fold watermark: the size of the committed,
// indexed log prefix. This is both the primary's shippable extent and a
// follower's applied position.
func (s *FileStore) CommittedOffset() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// ReadCommitted returns a record-aligned chunk of the committed log
// starting at from, at most maxBytes long (0: a 1 MiB default), along
// with the committed size at the time of the read. The returned bytes
// always end on a record boundary; when a single record exceeds maxBytes
// the cap grows until that record fits, so progress is guaranteed. The
// read is positional against the stable prefix, so it never races the
// writer and needs no lock beyond the watermark load.
func (s *FileStore) ReadCommitted(from int64, maxBytes int) ([]byte, int64, error) {
	s.mu.RLock()
	committed := s.size
	s.mu.RUnlock()
	if from < 0 || from > committed {
		return nil, committed, fmt.Errorf("store: read committed: offset %d outside [0,%d]", from, committed)
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	for {
		n := committed - from
		if n == 0 {
			return nil, committed, nil
		}
		if int64(maxBytes) < n {
			n = int64(maxBytes)
		}
		buf := make([]byte, n)
		if _, err := s.f.ReadAt(buf, from); err != nil {
			return nil, committed, fmt.Errorf("store: read committed: %w", err)
		}
		if n == committed-from {
			// Ends exactly at the watermark, which is always a record
			// boundary.
			return buf, committed, nil
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			return buf[:i+1], committed, nil
		}
		// The first record alone exceeds the cap: grow until it fits.
		maxBytes *= 2
	}
}

// ApplyReplicated appends a shipped batch of whole records (newline
// framed, exactly as ReadCommitted returned them) and folds each into
// the index through the same watermark queue as PutRunLog, so the
// follower's in-memory state equals a replay of its log — the invariant
// checkpoints and reopens rely on. It returns the decoded run logs (for
// cache delta patching and router indexing) and the new committed size.
//
// The batch must continue exactly at this store's committed offset; the
// caller (internal/store/replica) guarantees that by streaming from
// CommittedOffset. Duplicate-run guarding is not re-checked here: the
// primary's log cannot contain duplicates, and a replica store has no
// other writers.
func (s *FileStore) ApplyReplicated(data []byte) ([]*provenance.RunLog, int64, error) {
	if len(data) == 0 {
		return nil, s.CommittedOffset(), nil
	}
	if data[len(data)-1] != '\n' {
		return nil, 0, fmt.Errorf("store: apply replicated: torn batch (no trailing newline)")
	}
	// Decode outside the lock, keeping each record's framed length so the
	// batch folds at the same per-record offsets the primary committed.
	type rec struct {
		l     *provenance.RunLog
		frame int64
	}
	var recs []rec
	for rest := data; len(rest) > 0; {
		i := bytes.IndexByte(rest, '\n')
		line := rest[:i+1]
		rest = rest[i+1:]
		// A follower's bootstrap replay and every tailed batch decode here.
		l, err := decodeRecord(line)
		if err != nil {
			return nil, 0, fmt.Errorf("store: apply replicated: corrupt record: %w", err)
		}
		recs = append(recs, rec{l: l, frame: int64(len(line))})
	}

	off, werr := s.w.Append(data)
	if werr != nil {
		return nil, 0, fmt.Errorf("store: apply replicated: %w", werr)
	}
	end := off + int64(len(data))

	s.mu.Lock()
	at := off
	for _, rc := range recs {
		s.foldQueue[at] = &foldEntry{l: rc.l, end: at + rc.frame}
		at += rc.frame
	}
	s.foldTo(end)
	s.mu.Unlock()

	logs := make([]*provenance.RunLog, len(recs))
	for i, rc := range recs {
		logs[i] = rc.l
	}
	// One tick per applied run, as an ingest counts: CheckpointEvery counts
	// runs on a follower as on its primary, however the runs were batched.
	for range logs {
		s.autoCkpt.Tick(s.Checkpoint)
	}
	return logs, end, nil
}
