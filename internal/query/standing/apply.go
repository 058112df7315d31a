package standing

import (
	"errors"
	"sort"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/closurecache"
)

// ApplyDelta folds one accepted run log into every affected subscription.
// The Tap calls it after each local commit; a follower calls it, as one of
// its observers, for each shipped log. Cost is proportional to the
// closure and triple subscriptions the delta touches (via their indexes),
// never to the total registered, plus one semi-naive round over the
// distinct conjunctive queries — and never blocks on consumers: events
// land in bounded replay rings.
func (m *Manager) ApplyDelta(l *provenance.RunLog) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.subs) == 0 && m.prog == nil {
		return
	}
	start := obs.Now()
	defer mStandingPatch.ObserveSince(start)
	m.applyTriplesLocked(l)
	m.patchClosuresLocked(l)
	m.applyConjLocked(l)
}

// --- triple patterns ----------------------------------------------------------

// tripleSnapshotLocked computes a triple subscription's initial result by
// matching the pattern over every stored log's flattened triples. It
// decodes the logs rather than reading a file store's row image, which it
// would otherwise build at subscribe time (store.TriplesOf).
func (m *Manager) tripleSnapshotLocked(s *sub) error {
	return m.st.ScanLogs(0, func(l *provenance.RunLog) error {
		for _, t := range store.TriplesOf(l) {
			if matchTriple(s.spec.Pattern, t) {
				s.set[TripleItem(t)] = struct{}{}
			}
		}
		return nil
	})
}

// applyTriplesLocked matches the ingest's triples against the
// predicate-bucketed subscription index. Triples are append-only (they
// flatten run logs, which only accumulate), so this path emits only adds.
func (m *Manager) applyTriplesLocked(l *provenance.RunLog) {
	if len(m.tripleIdx) == 0 {
		return
	}
	adds := map[*sub][]string{}
	for _, t := range store.TriplesOf(l) {
		for _, bucket := range [2]string{t.P, ""} {
			for s := range m.tripleIdx[bucket] {
				if !matchTriple(s.spec.Pattern, t) {
					continue
				}
				item := TripleItem(t)
				if _, have := s.set[item]; !have {
					s.set[item] = struct{}{}
					adds[s] = append(adds[s], item)
				}
			}
		}
	}
	for s, items := range adds {
		sort.Strings(items)
		m.publishLocked(s, EventAdd, items)
	}
}

func matchTriple(p, t store.Triple) bool {
	return (p.S == "" || p.S == t.S) && (p.P == "" || p.P == t.P) && (p.O == "" || p.O == t.O)
}

// --- closure membership -------------------------------------------------------

// patchClosuresLocked folds the log into the closure subscriptions through
// the shared index: members an additive patch gained go out as one add
// event per watching subscription; a suspect entry is recomputed.
func (m *Manager) patchClosuresLocked(l *provenance.RunLog) {
	if m.closures.Len() == 0 {
		return
	}
	for _, ch := range m.closures.Apply(closurecache.DeltaOf(l), m.st.Expand) {
		if ch.Suspect {
			m.recomputeClosureLocked(ch.Entry)
			continue
		}
		adds := ch.Gained
		sort.Strings(adds)
		for _, s := range m.watchers[ch.Entry.Key] {
			m.publishLocked(s, EventAdd, adds)
		}
	}
	m.closures.Sweep()
}

// recomputeClosureLocked re-runs a suspect entry's closure fresh, replaces
// the entry and publishes the difference to its subscriptions — the
// non-monotone path. On a backend failure the entry, and with it what the
// subscribers have been told, stays as it was.
func (m *Manager) recomputeClosureLocked(old *closurecache.Entry) {
	k := old.Key
	order, err := m.st.Closure(k.ID, k.Dir)
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		return
	}
	members := m.closures.Members(old)
	had := make(map[string]struct{}, len(members))
	for _, id := range members {
		had[id] = struct{}{}
	}
	var adds, removes []string
	for _, id := range order {
		if _, ok := had[id]; ok {
			delete(had, id) // what is left of had is what the closure lost
		} else {
			adds = append(adds, id)
		}
	}
	for id := range had {
		removes = append(removes, id)
	}
	m.closures.Evict(old)
	m.closures.Admit(k, order)
	sort.Strings(adds)
	sort.Strings(removes)
	for _, s := range m.watchers[k] {
		if len(removes) > 0 {
			m.publishLocked(s, EventRemove, removes)
		}
		if len(adds) > 0 {
			m.publishLocked(s, EventAdd, adds)
		}
	}
}
