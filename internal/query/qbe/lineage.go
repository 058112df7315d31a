package qbe

import (
	"sort"

	"repro/internal/query/scan"
	"repro/internal/relalg"
	"repro/internal/store"
)

// FilterByClosure narrows QBE matches using stored provenance: it keeps
// only the workflows with at least one stored run whose executions or
// artifacts appear in the closure of entityID (the entity itself counts).
// With dir store.Up this answers "which of these structurally similar
// workflows contributed to this result"; with store.Down, "which consumed
// it" — the §2.2 knowledge-reuse queries joined with retrospective
// provenance. The closure is pushed down to the backend as one batch
// traversal; one pass over the stored rows (runs, executions, artifacts:
// a file store's row image, fanned out across shards in parallel on a
// sharded store) streams (workflow, entity) pairs through a relalg
// semijoin against the closure set.
func FilterByClosure(s store.Store, matches []Match, entityID string, dir store.Direction) ([]Match, error) {
	closure, err := s.Closure(entityID, dir)
	if err != nil {
		return nil, err
	}
	keys := make(map[relalg.Val]bool, len(closure)+1)
	keys[entityID] = true
	for _, id := range closure {
		keys[id] = true
	}

	var pairs []relalg.Tuple
	if _, err := scan.ShardedRows(s, func(r *store.RunRows) error {
		wf := r.Run.Workflow
		for _, e := range r.Executions {
			pairs = append(pairs, relalg.Tuple{Values: []relalg.Val{wf, e.ID}})
		}
		for _, a := range r.Artifacts {
			pairs = append(pairs, relalg.Tuple{Values: []relalg.Val{wf, a.ID}})
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// touch ⋉ closure, projected to the distinct workflows touched.
	it, err := relalg.StreamSemijoin(
		relalg.NewSliceScan("touch", []string{"workflow", "entity"}, pairs),
		"entity", keys)
	if err != nil {
		return nil, err
	}
	it, err = relalg.StreamProject(it, "workflow")
	if err != nil {
		return nil, err
	}
	touched := map[string]bool{}
	if err := relalg.Drain(it, func(t *relalg.Tuple) error {
		touched[t.Values[0].(string)] = true
		return nil
	}); err != nil {
		return nil, err
	}

	var out []Match
	for _, m := range matches {
		if touched[m.WorkflowID] {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WorkflowID < out[j].WorkflowID })
	return out, nil
}
