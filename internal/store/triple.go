package store

import (
	"fmt"
	"sort"

	"repro/internal/provenance"
)

// Triple is an RDF-style (subject, predicate, object) statement.
type Triple struct {
	S, P, O string
}

// Predicates used when flattening provenance into triples. They mirror the
// vocabulary of the RDF-based systems the paper surveys [46, 26, 22].
const (
	PredType       = "rdf:type"
	PredGenerated  = "prov:generated"   // execution -> artifact
	PredUsed       = "prov:used"        // execution -> artifact
	PredPartOfRun  = "prov:partOfRun"   // execution/artifact -> run
	PredModule     = "prov:module"      // execution -> module ID
	PredModuleType = "prov:moduleType"  // execution -> module type
	PredStatus     = "prov:status"      // execution/run -> status
	PredHash       = "prov:contentHash" // artifact -> hash
	PredArtType    = "prov:artifactType"
	PredWorkflow   = "prov:workflow" // run -> workflow ID
	PredAgent      = "prov:agent"    // run -> agent
	PredAnnKey     = "ann:key"
	PredAnnValue   = "ann:value"
	PredAnnSubject = "ann:subject"
)

// TripleStore keeps provenance as triples with SPO/POS/OSP hash indexes,
// the Semantic-Web storage approach. It also serves as the data source for
// the SPARQL-like query engine (experiments/survey.RunSPARQL).
type TripleStore struct {
	runLogs
	spo   map[string]map[string][]string // s -> p -> objects
	pos   map[string]map[string][]string // p -> o -> subjects
	osp   map[string]map[string][]string // o -> s -> predicates
	count int
	bytes int64
}

// NewTripleStore returns an empty triple store.
func NewTripleStore() *TripleStore {
	return &TripleStore{
		spo: map[string]map[string][]string{},
		pos: map[string]map[string][]string{},
		osp: map[string]map[string][]string{},
	}
}

var _ Store = (*TripleStore)(nil)

// Name implements Store.
func (s *TripleStore) Name() string { return "triple" }

func (s *TripleStore) insert(t Triple) {
	addTo(s.spo, t.S, t.P, t.O)
	addTo(s.pos, t.P, t.O, t.S)
	addTo(s.osp, t.O, t.S, t.P)
	s.count++
	s.bytes += int64(len(t.S) + len(t.P) + len(t.O) + 24)
}

func addTo(idx map[string]map[string][]string, a, b, c string) {
	m, ok := idx[a]
	if !ok {
		m = map[string][]string{}
		idx[a] = m
	}
	m[b] = append(m[b], c)
}

// TriplesOf flattens a run log into the triples PutRunLog stores, in
// insertion order. It is the single source of truth for the provenance
// vocabulary, shared with the closure cache's ingest-time pattern patching
// (package closurecache), which must predict exactly which triples an
// ingest adds. It still reads the log, not Rows: the standing triple
// snapshot scans every stored log through it, and reading the row image
// instead would build the image at subscribe time on a store nobody
// queries relationally.
func TriplesOf(l *provenance.RunLog) []Triple {
	out := make([]Triple, 0, 4+5*len(l.Executions)+4*len(l.Artifacts)+len(l.Events)+4*len(l.Annotations))
	out = append(out,
		Triple{l.Run.ID, PredType, "Run"},
		Triple{l.Run.ID, PredWorkflow, l.Run.WorkflowID},
		Triple{l.Run.ID, PredAgent, l.Run.Agent},
		Triple{l.Run.ID, PredStatus, string(l.Run.Status)})
	for _, e := range l.Executions {
		out = append(out,
			Triple{e.ID, PredType, "Execution"},
			Triple{e.ID, PredPartOfRun, e.RunID},
			Triple{e.ID, PredModule, e.ModuleID},
			Triple{e.ID, PredModuleType, e.ModuleType},
			Triple{e.ID, PredStatus, string(e.Status)})
	}
	for _, a := range l.Artifacts {
		out = append(out,
			Triple{a.ID, PredType, "Artifact"},
			Triple{a.ID, PredPartOfRun, a.RunID},
			Triple{a.ID, PredHash, a.ContentHash},
			Triple{a.ID, PredArtType, a.Type})
	}
	for _, ev := range l.Events {
		switch ev.Kind {
		case provenance.EventArtifactUsed:
			out = append(out, Triple{ev.ExecutionID, PredUsed, ev.ArtifactID})
		case provenance.EventArtifactGen:
			out = append(out, Triple{ev.ExecutionID, PredGenerated, ev.ArtifactID})
		}
	}
	for i, an := range l.Annotations {
		node := fmt.Sprintf("_:ann-%s-%d", l.Run.ID, i)
		out = append(out,
			Triple{node, PredType, "Annotation"},
			Triple{node, PredAnnSubject, an.Subject},
			Triple{node, PredAnnKey, an.Key},
			Triple{node, PredAnnValue, an.Value})
	}
	return out
}

// PutRunLog implements Store.
func (s *TripleStore) PutRunLog(l *provenance.RunLog) error {
	return s.put(l, func() {
		for _, t := range TriplesOf(l) {
			s.insert(t)
		}
	})
}

// Match returns triples matching a pattern; empty strings are wildcards.
// Results are sorted. This is the primitive the SPARQL-like engine joins
// over.
func (s *TripleStore) Match(subj, pred, obj string) []Triple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.matchLocked(subj, pred, obj)
}

// MatchBatch resolves many patterns (empty strings are wildcards, as in
// Match) under a single read lock: the batched index-probe primitive the
// SPARQL-like engine uses to evaluate one pattern across a whole binding
// frontier in one store call. Result i holds the matches of patterns[i].
func (s *TripleStore) MatchBatch(patterns []Triple) [][]Triple {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]Triple, len(patterns))
	for i, p := range patterns {
		out[i] = s.matchLocked(p.S, p.P, p.O)
	}
	return out
}

func (s *TripleStore) matchLocked(subj, pred, obj string) []Triple {
	var out []Triple
	switch {
	case subj != "" && pred != "":
		for _, o := range s.spo[subj][pred] {
			if obj == "" || obj == o {
				out = append(out, Triple{subj, pred, o})
			}
		}
	case subj != "":
		for p, objs := range s.spo[subj] {
			for _, o := range objs {
				if obj == "" || obj == o {
					out = append(out, Triple{subj, p, o})
				}
			}
		}
	case pred != "" && obj != "":
		for _, sub := range s.pos[pred][obj] {
			out = append(out, Triple{sub, pred, obj})
		}
	case pred != "":
		for o, subs := range s.pos[pred] {
			for _, sub := range subs {
				out = append(out, Triple{sub, pred, o})
			}
		}
	case obj != "":
		for sub, preds := range s.osp[obj] {
			for _, p := range preds {
				out = append(out, Triple{sub, p, obj})
			}
		}
	default:
		for sub, pm := range s.spo {
			for p, objs := range pm {
				for _, o := range objs {
					out = append(out, Triple{sub, p, o})
				}
			}
		}
	}
	sortTriples(out)
	return out
}

// sortTriples orders triples by (S, P, O): the canonical result order of
// Match/MatchBatch.
func sortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
}

// Entities implements Store with SPO probes under one read lock: an ID
// typed Artifact answers with its artifact triples, else one typed
// Execution with its execution triples, each field from the latest
// declaration. The vocabulary holds no artifact size or execution wall
// time, so those fields stay zero.
func (s *TripleStore) Entities(ids []string) ([]Entity, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entity, len(ids))
	for i, id := range ids {
		switch {
		case hasObj(s.spo, id, PredType, "Artifact"):
			out[i].Artifact = &provenance.Artifact{
				ID:          id,
				RunID:       lastObj(s.spo, id, PredPartOfRun),
				ContentHash: lastObj(s.spo, id, PredHash),
				Type:        lastObj(s.spo, id, PredArtType),
			}
		case hasObj(s.spo, id, PredType, "Execution"):
			out[i].Execution = &provenance.Execution{
				ID:         id,
				RunID:      lastObj(s.spo, id, PredPartOfRun),
				ModuleID:   lastObj(s.spo, id, PredModule),
				ModuleType: lastObj(s.spo, id, PredModuleType),
				Status:     provenance.ExecStatus(lastObj(s.spo, id, PredStatus)),
			}
		}
	}
	return out, nil
}

func hasObj(spo map[string]map[string][]string, s, p, o string) bool {
	for _, have := range spo[s][p] {
		if have == o {
			return true
		}
	}
	return false
}

// lastObj is the object of the last (s, p, ·) triple inserted: the value
// the latest declaration of s gave p.
func lastObj(spo map[string]map[string][]string, s, p string) string {
	objs := spo[s][p]
	if len(objs) == 0 {
		return ""
	}
	return objs[len(objs)-1]
}

// neighborsLocked resolves one entity's frontier neighbors with SPO/POS
// index probes; the caller holds at least a read lock. Only Artifact and
// Execution nodes participate in traversal (Run and Annotation subjects
// are not causal-graph entities).
func (s *TripleStore) neighborsLocked(id string, dir Direction) ([]string, bool) {
	switch {
	case hasObj(s.spo, id, PredType, "Artifact"):
		if dir == Up {
			if gens := s.pos[PredGenerated][id]; len(gens) > 0 {
				return gens[:1:1], true
			}
			return nil, true
		}
		return sortedUnique(s.pos[PredUsed][id]), true
	case hasObj(s.spo, id, PredType, "Execution"):
		if dir == Up {
			return sortedUnique(s.spo[id][PredUsed]), true
		}
		return sortedUnique(s.spo[id][PredGenerated]), true
	}
	return nil, false
}

// Expand implements Store: the whole frontier's SPO/POS probes run under
// one read lock.
func (s *TripleStore) Expand(ids []string, dir Direction) (map[string][]string, error) {
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

// Closure implements Store: the full BFS runs under a single read lock,
// probing the triple indexes directly.
func (s *TripleStore) Closure(seed string, dir Direction) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return bfsClosure(seed, dir, s.neighborsLocked)
}

// Stats implements Store.
func (s *TripleStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Runs: len(s.logs), Bytes: s.bytes}
	for _, l := range s.logs {
		st.Executions += len(l.Executions)
		st.Artifacts += len(l.Artifacts)
		st.Events += len(l.Events)
		st.Annotations += len(l.Annotations)
	}
	return st, nil
}

// TripleCount returns the number of stored triples.
func (s *TripleStore) TripleCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Close implements Store.
func (s *TripleStore) Close() error { return nil }
