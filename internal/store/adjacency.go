package store

import "repro/internal/provenance"

// entityKind classifies an ID for traversal. Artifact classification wins
// when an ID is stored as both kinds — the shared rule of every backend.
type entityKind int

const (
	kindUnknown entityKind = iota
	kindArtifact
	kindExecution
)

// adjacency is MemStore's event fold and neighbor resolution: small,
// map-based, sorting at read time. It is deliberately not shared with
// FileStore, whose entity table folds and walks the same graph another
// way — MemStore is the oracle the table is tested against, and an oracle
// that shared the fold would agree with its bugs. Generator edges are
// last-write-wins (a later run re-declaring an artifact's generator
// rewrites the Up edge); consumer/used/generated lists accumulate across
// runs and are served sorted and deduplicated.
type adjacency struct {
	genBy     map[string]string   // artifact -> execution
	consumers map[string][]string // artifact -> executions
	used      map[string][]string // execution -> artifacts
	generated map[string][]string // execution -> artifacts
}

func newAdjacency() adjacency {
	return adjacency{
		genBy:     map[string]string{},
		consumers: map[string][]string{},
		used:      map[string][]string{},
		generated: map[string][]string{},
	}
}

// fold indexes one run log's use/gen events. Callers pass complete,
// validated logs; fold is idempotent per event list, not per event.
func (a *adjacency) fold(events []provenance.Event) {
	for _, ev := range events {
		switch ev.Kind {
		case provenance.EventArtifactGen:
			a.genBy[ev.ArtifactID] = ev.ExecutionID
			a.generated[ev.ExecutionID] = append(a.generated[ev.ExecutionID], ev.ArtifactID)
		case provenance.EventArtifactUsed:
			a.consumers[ev.ArtifactID] = append(a.consumers[ev.ArtifactID], ev.ExecutionID)
			a.used[ev.ExecutionID] = append(a.used[ev.ExecutionID], ev.ArtifactID)
		}
	}
}

// neighbors resolves one entity's frontier neighbors given the kind the
// owning backend classified it as: the generating execution (or nothing)
// for an artifact going Up, consuming executions going Down; used artifacts
// for an execution going Up, generated artifacts going Down. ok=false for
// kindUnknown, mirroring the Expand contract's known/unknown distinction.
func (a *adjacency) neighbors(id string, dir Direction, kind entityKind) ([]string, bool) {
	switch kind {
	case kindArtifact:
		if dir == Up {
			if g, ok := a.genBy[id]; ok {
				return []string{g}, true
			}
			return nil, true
		}
		return sortedUnique(a.consumers[id]), true
	case kindExecution:
		if dir == Up {
			return sortedUnique(a.used[id]), true
		}
		return sortedUnique(a.generated[id]), true
	}
	return nil, false
}

// MergeNeighbors merges sorted-unique neighbor lists from multiple
// backends into one list preserving the Expand contract (sorted,
// deduplicated) — the sharded router's gather step.
func MergeNeighbors(lists ...[]string) []string {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return append([]string(nil), lists[0]...)
	}
	var all []string
	for _, l := range lists {
		all = append(all, l...)
	}
	return sortedUnique(all)
}
