package store

import (
	"sort"

	"repro/internal/provenance"
)

// MemStore keeps provenance in native maps with adjacency indexes: the
// reference implementation for the others, and the differential oracle of
// the property tests and of provload.
type MemStore struct {
	runLogs
	artifacts map[string]*provenance.Artifact
	execs     map[string]*provenance.Execution
	adj       adjacency
	bytes     int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
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
	return s.put(l, func() {
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
	})
}

// Entities implements Store with one map lookup per ID under one read
// lock.
func (s *MemStore) Entities(ids []string) ([]Entity, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entity, len(ids))
	for i, id := range ids {
		if a, ok := s.artifacts[id]; ok {
			out[i].Artifact = a
		} else {
			out[i].Execution = s.execs[id]
		}
	}
	return out, nil
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

// localCloseBFS is the local-fixpoint walk behind MemStore.CloseLocal
// (FileStore walks its entity table instead): a BFS over a per-node
// neighbor function that stops at skip boundaries and records each
// expanded node's neighbor list. neighbors reports ok=false for unknown
// entities (they are not expanded; a run log's events only reference
// entities declared in the same log, so a backend's own edges never
// dangle).
//
// Dedup is hybrid: the typical pushdown round expands a handful of nodes,
// where a linear scan of the result beats allocating a set, and a walk
// that grows past the threshold (a single-shard store's whole closure)
// spills into a map once.
func localCloseBFS(seeds []string, dir Direction, skip func(string) bool, neighbors func(id string, dir Direction) ([]string, bool), buf []LocalNeighbors) []LocalNeighbors {
	out := buf[:0]
	const spill = 32
	var seen map[string]struct{}
	expanded := func(id string) bool {
		if seen != nil {
			_, ok := seen[id]
			return ok
		}
		for i := range out {
			if out[i].ID == id {
				return true
			}
		}
		return false
	}
	// Level buffers alternate (the seed slice is caller-owned and never
	// written), keeping the walk allocation-flat across levels.
	var bufs [2][]string
	frontier := seeds
	which := 0
	for len(frontier) > 0 {
		next := bufs[which][:0]
		for _, id := range frontier {
			if expanded(id) {
				continue
			}
			if skip != nil && skip(id) {
				continue
			}
			ns, ok := neighbors(id, dir)
			if !ok {
				continue
			}
			if seen == nil && len(out) >= spill {
				seen = make(map[string]struct{}, 4*spill)
				for i := range out {
					seen[out[i].ID] = struct{}{}
				}
			}
			if seen != nil {
				seen[id] = struct{}{}
			}
			out = append(out, LocalNeighbors{ID: id, Neighbors: ns})
			for _, n := range ns {
				if !expanded(n) {
					next = append(next, n)
				}
			}
		}
		bufs[which] = next
		frontier = next
		which ^= 1
	}
	return out
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
