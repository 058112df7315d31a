package store

import (
	"slices"
	"sort"
	"strings"

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
	// The handle space CloseLocal walks: every declared ID, interned at
	// ingest.
	handles map[string]int32
	ids     []string
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		artifacts: map[string]*provenance.Artifact{},
		execs:     map[string]*provenance.Execution{},
		adj:       newAdjacency(),
		handles:   map[string]int32{},
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
			s.intern(a.ID)
			s.artifacts[a.ID] = a
			s.bytes += int64(len(a.ID)+len(a.Type)+len(a.ContentHash)+len(a.Preview)) + 16
		}
		for _, e := range l.Executions {
			s.intern(e.ID)
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

// intern gives id a handle the first time it is declared; the caller
// holds the write lock.
func (s *MemStore) intern(id string) {
	if _, ok := s.handles[id]; !ok {
		s.handles[id] = int32(len(s.ids))
		s.ids = append(s.ids, id)
	}
}

// CloseLocal implements LocalCloser: the whole local fixpoint runs under
// one RLock (the sharded router's closure-pushdown primitive).
func (s *MemStore) CloseLocal(w *LocalWalk, seeds []string, dir Direction) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.close(s, seeds, dir)
}

// The interned IDs are the handle space MemStore.CloseLocal walks; a
// handle's neighbours are those of neighborsLocked, read from the same
// adjacency lists, so the walk reads the oracle's adjacency and not a
// second fold of it. Validated logs reference only entities they declare,
// so every neighbour has a handle.

func (s *MemStore) handle(id string) (int32, bool) {
	h, ok := s.handles[id]
	return h, ok
}

func (s *MemStore) size() int { return len(s.ids) }

// appendAdjacent appends h's neighbours in neighborsLocked's order without
// copying its lists: the raw handles go straight into dst and are sorted
// by ID and deduplicated there.
func (s *MemStore) appendAdjacent(dst []int32, h int32, dir Direction) (string, []int32, bool) {
	id := s.ids[h]
	var ns []string
	switch s.kindLocked(id) {
	case kindArtifact:
		if dir == Up {
			if g, ok := s.adj.genBy[id]; ok {
				dst = append(dst, s.handles[g])
			}
			return id, dst, true
		}
		ns = s.adj.consumers[id]
	case kindExecution:
		if dir == Up {
			ns = s.adj.used[id]
		} else {
			ns = s.adj.generated[id]
		}
	default:
		return "", dst, false
	}
	from := len(dst)
	for _, n := range ns {
		dst = append(dst, s.handles[n])
	}
	adj := dst[from:]
	slices.SortFunc(adj, func(a, b int32) int { return strings.Compare(s.ids[a], s.ids[b]) })
	return id, dst[:from+len(slices.Compact(adj))], true
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
