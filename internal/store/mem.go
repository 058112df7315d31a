package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/provenance"
)

// MemStore keeps provenance in native maps with adjacency indexes: the
// reference implementation for the others, and the differential oracle of
// the property tests and of provload.
type MemStore struct {
	mu        sync.RWMutex
	logs      map[string]*provenance.RunLog
	order     []string
	artifacts map[string]*provenance.Artifact
	execs     map[string]*provenance.Execution
	adj       adjacency
	bytes     int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		logs:      map[string]*provenance.RunLog{},
		artifacts: map[string]*provenance.Artifact{},
		execs:     map[string]*provenance.Execution{},
		adj:       newAdjacency(),
	}
}

var _ Store = (*MemStore)(nil)
var _ LocalCloser = (*MemStore)(nil)

// Name implements Store.
func (s *MemStore) Name() string { return "mem" }

// PutRunLog implements Store.
func (s *MemStore) PutRunLog(l *provenance.RunLog) error {
	if err := l.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.logs[l.Run.ID]; dup {
		return fmt.Errorf("store: run %q already stored", l.Run.ID)
	}
	s.logs[l.Run.ID] = l
	s.order = append(s.order, l.Run.ID)
	for _, a := range l.Artifacts {
		s.artifacts[a.ID] = a
		s.bytes += int64(len(a.ID)+len(a.Type)+len(a.ContentHash)+len(a.Preview)) + 16
	}
	for _, e := range l.Executions {
		s.execs[e.ID] = e
		s.bytes += int64(len(e.ID)+len(e.ModuleID)+len(e.ModuleType)) + 48
	}
	s.adj.fold(l.Events)
	s.bytes += int64(len(l.Events)) * 48
	s.bytes += int64(len(l.Annotations)) * 64
	return nil
}

// RunLog implements Store.
func (s *MemStore) RunLog(runID string) (*provenance.RunLog, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.logs[runID]
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	return l, nil
}

// Runs implements Store.
func (s *MemStore) Runs() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...), nil
}

// Artifact implements Store.
func (s *MemStore) Artifact(id string) (*provenance.Artifact, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.artifacts[id]
	if !ok {
		return nil, fmt.Errorf("%w: artifact %q", ErrNotFound, id)
	}
	return a, nil
}

// Execution implements Store.
func (s *MemStore) Execution(id string) (*provenance.Execution, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.execs[id]
	if !ok {
		return nil, fmt.Errorf("%w: execution %q", ErrNotFound, id)
	}
	return e, nil
}

// GeneratorOf implements Store.
func (s *MemStore) GeneratorOf(artifactID string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.adj.genBy[artifactID]
	if !ok {
		return "", fmt.Errorf("%w: generator of %q", ErrNotFound, artifactID)
	}
	return g, nil
}

// ConsumersOf implements Store.
func (s *MemStore) ConsumersOf(artifactID string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedUnique(s.adj.consumers[artifactID]), nil
}

// Used implements Store.
func (s *MemStore) Used(execID string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedUnique(s.adj.used[execID]), nil
}

// Generated implements Store.
func (s *MemStore) Generated(execID string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedUnique(s.adj.generated[execID]), nil
}

// kindLocked classifies an ID for traversal; the caller holds at least a
// read lock.
func (s *MemStore) kindLocked(id string) entityKind {
	if _, isArt := s.artifacts[id]; isArt {
		return kindArtifact
	}
	if _, isExec := s.execs[id]; isExec {
		return kindExecution
	}
	return kindUnknown
}

// neighborsLocked resolves one entity's frontier neighbors from the shared
// adjacency core; the caller holds at least a read lock.
func (s *MemStore) neighborsLocked(id string, dir Direction) ([]string, bool) {
	return s.adj.neighbors(id, dir, s.kindLocked(id))
}

// Expand implements Store: the whole frontier is served under one RLock.
func (s *MemStore) Expand(ids []string, dir Direction) (map[string][]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string][]string, len(ids))
	for _, id := range ids {
		if ns, ok := s.neighborsLocked(id, dir); ok {
			out[id] = ns
		}
	}
	return out, nil
}

// Closure implements Store: the full BFS runs under a single RLock with
// direct map lookups, no per-edge locking.
func (s *MemStore) Closure(seed string, dir Direction) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return bfsClosure(seed, dir, s.neighborsLocked)
}

// CloseLocal implements LocalCloser: the whole local fixpoint runs under
// one RLock (the sharded router's closure-pushdown primitive).
func (s *MemStore) CloseLocal(seeds []string, dir Direction, skip func(string) bool, buf []LocalNeighbors) ([]LocalNeighbors, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return localCloseBFS(seeds, dir, skip, s.neighborsLocked, buf), nil
}

// Stats implements Store.
func (s *MemStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Runs: len(s.logs), Artifacts: len(s.artifacts), Executions: len(s.execs), Bytes: s.bytes}
	for _, l := range s.logs {
		st.Events += len(l.Events)
		st.Annotations += len(l.Annotations)
	}
	return st, nil
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	dedup := out[:1]
	for _, s := range out[1:] {
		if s != dedup[len(dedup)-1] {
			dedup = append(dedup, s)
		}
	}
	return dedup
}
