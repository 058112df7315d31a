package store

import (
	"fmt"
	"sync"

	"repro/internal/provenance"
)

// runLogs is the run-log bookkeeping the resident backends (MemStore,
// RelStore, TripleStore) embed: the stored logs by ID and in insertion
// order, under the backend's one lock. It implements RunLog, Runs,
// ScanLogs, ScanRows and Checkpoint for all three; each backend indexes a
// new log its own way through put. The zero value is empty and ready.
type runLogs struct {
	mu   sync.RWMutex
	byID map[string]*provenance.RunLog
	logs []*provenance.RunLog // insertion order; only ever appended
}

// put validates l, then under the write lock rejects a stored run ID,
// records l and calls fold, still under the lock, to index it.
func (r *runLogs) put(l *provenance.RunLog, fold func()) error {
	if err := l.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[l.Run.ID]; dup {
		return fmt.Errorf("store: run %q already stored", l.Run.ID)
	}
	if r.byID == nil {
		r.byID = map[string]*provenance.RunLog{}
	}
	r.byID[l.Run.ID] = l
	r.logs = append(r.logs, l)
	fold()
	return nil
}

// RunLog implements Store.
func (r *runLogs) RunLog(runID string) (*provenance.RunLog, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.byID[runID]
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	return l, nil
}

// Runs implements Store.
func (r *runLogs) Runs() ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.logs))
	for i, l := range r.logs {
		out[i] = l.Run.ID
	}
	return out, nil
}

// ScanLogs implements Store. The lock is held only to read the list: its
// elements below the length read never change, so fn runs unlocked.
func (r *runLogs) ScanLogs(skip int, fn func(*provenance.RunLog) error) error {
	r.mu.RLock()
	logs := r.logs[min(max(skip, 0), len(r.logs)):]
	r.mu.RUnlock()
	for _, l := range logs {
		if err := fn(l); err != nil {
			return err
		}
	}
	return nil
}

// ScanRows implements Store by flattening each log as ScanLogs emits it.
func (r *runLogs) ScanRows(fn func(*RunRows) error) error {
	var rows RunRows
	return r.ScanLogs(0, func(l *provenance.RunLog) error {
		rows.fill(l)
		return fn(&rows)
	})
}

// Checkpoint implements Checkpointer: a resident store has no log to
// snapshot.
func (r *runLogs) Checkpoint() error { return nil }
