package store

import (
	"errors"

	"repro/internal/provenance"
)

// Unwrap peels layering wrappers (closure cache, standing-query tap,
// tracing shims — anything with an Underlying method) off a store until it
// reaches the one that stores run logs itself: the store optional
// capabilities (LogScanner, EntityBatcher, the replication log) resolve on.
func Unwrap(s Store) Store {
	for {
		u, ok := s.(interface{ Underlying() Store })
		if !ok {
			return s
		}
		s = u.Underlying()
	}
}

// LogScanner is the optional capability of a backend that can stream its
// run logs sequentially instead of one RunLog call per run: the file store
// (one pass over the committed log prefix) and the sharded router (one
// such pass per shard, in parallel, merged into global order). Wrappers do
// not forward it; resolve it on the unwrapped store (Unwrap) or go
// through ScanLogs.
type LogScanner interface {
	// ScanLogs invokes fn once per stored run log, in Runs() order,
	// starting at the skip-th run. It covers the runs stored when the call
	// began; runs ingested while it streams may or may not be seen. fn
	// runs outside every store lock and must not modify the log; the scan
	// stops at fn's first error.
	ScanLogs(skip int, fn func(*provenance.RunLog) error) error
}

// ScanLogs is the one way to iterate a store's run logs: through the
// backend's LogScanner when it has one, otherwise run at a time (the
// resident backends, which have no log to stream).
func ScanLogs(s Store, skip int, fn func(*provenance.RunLog) error) error {
	if ls, ok := s.(LogScanner); ok {
		return ls.ScanLogs(skip, fn)
	}
	runs, err := s.Runs()
	if err != nil {
		return err
	}
	for _, id := range runs[min(max(skip, 0), len(runs)):] {
		l, err := s.RunLog(id)
		if err != nil {
			return err
		}
		if err := fn(l); err != nil {
			return err
		}
	}
	return nil
}

// Entity is one fetched entity record: the artifact or the execution an
// ID names (artifact classification wins for an ID stored as both, as in
// traversal), or neither when the ID is unknown.
type Entity struct {
	Artifact  *provenance.Artifact
	Execution *provenance.Execution
}

// EntityBatcher is the optional batch form of Artifact/Execution for
// backends whose entity records live inside run logs on disk: the kind of
// every ID resolves from the resident owner indexes, and each owning run
// is read and decoded once however many of the IDs it holds.
type EntityBatcher interface {
	// Entities returns one Entity per ID, aligned with ids.
	Entities(ids []string) ([]Entity, error)
}

// Entities fetches the records of a batch of entity IDs: through the
// backend's EntityBatcher when it has one, otherwise one Artifact or
// Execution call per ID.
func Entities(s Store, ids []string) ([]Entity, error) {
	if eb, ok := s.(EntityBatcher); ok {
		return eb.Entities(ids)
	}
	out := make([]Entity, len(ids))
	for i, id := range ids {
		a, err := s.Artifact(id)
		if err == nil {
			out[i].Artifact = a
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			return nil, err
		}
		e, err := s.Execution(id)
		if err == nil {
			out[i].Execution = e
		} else if !errors.Is(err, ErrNotFound) {
			return nil, err
		}
	}
	return out, nil
}
