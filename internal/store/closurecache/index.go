package closurecache

import (
	"slices"

	"repro/internal/provenance"
	"repro/internal/store"
)

// Key addresses one maintained result: the closure of a root entity, or the
// memoized neighbor frontier of an entity, in one direction.
type Key struct {
	ID  string
	Dir store.Direction
}

// Entry is one maintained closure. order is the visit order (the admitted
// closure plus each patch's newly reached nodes in discovery order). set
// indexes it for membership tests during patching and is nil until the
// first patch (see memberSet). An entry is posted into the reverse index by
// the first Apply after its admission. An evicted entry is dead: unreachable
// through Lookup, skipped wherever the reverse index still points at it.
type Entry struct {
	Key    Key
	order  []string
	set    map[string]struct{}
	dead   bool
	posted bool
}

// Members returns the closure's current members in visit order. The slice
// is the entry's own: callers copy before keeping or modifying it.
func (e *Entry) Members() []string { return e.order }

// memberSet returns the entry's membership index, building it from order
// on first use.
func (e *Entry) memberSet() map[string]struct{} {
	if e.set == nil {
		e.set = make(map[string]struct{}, len(e.order))
		for _, n := range e.order {
			e.set[n] = struct{}{}
		}
	}
	return e.set
}

// Delta is what one accepted run log adds to the graph: per direction
// (indexed by store.Direction) the new neighbors of each edge source, and
// the artifacts named by a generation event — the only edges a backend may
// rewrite rather than add (generator edges are last-write-wins).
type Delta struct {
	Edges     [2]map[string][]string
	Generated []string
}

// DeltaOf derives a run log's delta.
func DeltaOf(l *provenance.RunLog) Delta {
	d := Delta{Edges: [2]map[string][]string{{}, {}}}
	up, down := d.Edges[store.Up], d.Edges[store.Down]
	for _, ev := range l.Events {
		switch ev.Kind {
		case provenance.EventArtifactGen:
			up[ev.ArtifactID] = append(up[ev.ArtifactID], ev.ExecutionID)
			down[ev.ExecutionID] = append(down[ev.ExecutionID], ev.ArtifactID)
			d.Generated = append(d.Generated, ev.ArtifactID)
		case provenance.EventArtifactUsed:
			up[ev.ExecutionID] = append(up[ev.ExecutionID], ev.ArtifactID)
			down[ev.ArtifactID] = append(down[ev.ArtifactID], ev.ExecutionID)
		}
	}
	return d
}

// Change is what Apply did to one entry: the members an additive patch
// appended (in discovery order, aliasing the entry's own slice), or Suspect
// when the entry can no longer be trusted — a generation event named one of
// its members, so an upstream edge inside it may have been rewritten, or the
// patch's traversal failed. A suspect entry is left exactly as it was; the
// owner decides what that costs (the Cache evicts it, a standing.Manager
// recomputes it and publishes the difference).
type Change struct {
	Entry   *Entry
	Gained  []string
	Suspect bool
}

// Index is the maintenance structure behind the Cache and behind
// standing-query closure subscriptions: closures keyed by (root, direction),
// a reverse index from each entity to the closures containing it, and the
// one delta path that keeps them equal to a fresh Closure as run logs
// commit. It holds no policy — no capacity, no metrics, no locking: the
// owner serializes access under its own lock and decides what to admit,
// what to evict and what to do with a suspect entry.
type Index struct {
	entries map[Key]*Entry

	// Reverse index: entity -> posted entries whose closure contains it
	// (roots included), one posting per (entity, entry) membership.
	// Postings of evicted entries stay as tombstones until Sweep;
	// nPostings counts every posting held and nLive those of live entries.
	postings  map[string][]*Entry
	nPostings int
	nLive     int

	// pending holds the entries admitted since the last Apply, which posts
	// them: Apply is the only reader of postings, so an owner that never
	// ingests hashes no member and never sweeps. Dead entries stay listed
	// until the list outgrows twice the live entries.
	pending []*Entry
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{entries: map[Key]*Entry{}, postings: map[string][]*Entry{}}
}

// Len reports the number of live entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Lookup returns the live entry under k, or nil.
func (ix *Index) Lookup(k Key) *Entry { return ix.entries[k] }

// Admit inserts a freshly computed closure under a key that has no live
// entry. It keeps its own copy of order and leaves the postings to the next
// Apply.
func (ix *Index) Admit(k Key, order []string) *Entry {
	e := &Entry{Key: k, order: append([]string(nil), order...)}
	ix.entries[k] = e
	if len(ix.pending) >= 2*len(ix.entries)+16 {
		ix.pending = slices.DeleteFunc(ix.pending, func(p *Entry) bool { return p.dead })
	}
	ix.pending = append(ix.pending, e)
	return e
}

// Evict drops one entry in O(1): the entry is marked dead and its postings,
// if it has any yet, become tombstones. It never touches the postings
// lists; callers call Sweep once they are done evicting.
func (ix *Index) Evict(e *Entry) {
	if e.dead {
		return
	}
	e.dead = true
	delete(ix.entries, e.Key)
	if e.posted {
		ix.nLive -= 1 + len(e.order)
	}
	e.order, e.set = nil, nil // the tombstones keep e itself reachable
}

// postPending posts every live entry admitted since the last Apply.
func (ix *Index) postPending() {
	for _, e := range ix.pending {
		if e.dead {
			continue
		}
		e.posted = true
		ix.post(e.Key.ID, e)
		for _, n := range e.order {
			ix.post(n, e)
		}
	}
	clear(ix.pending)
	ix.pending = ix.pending[:0]
}

// post records that e's closure contains node.
func (ix *Index) post(node string, e *Entry) {
	ix.postings[node] = append(ix.postings[node], e)
	ix.nPostings++
	ix.nLive++
}

// Sweep removes every tombstone from the reverse index once they outnumber
// the live postings, so the index stays within twice its live size at an
// amortized O(1) per evicted member.
func (ix *Index) Sweep() {
	if ix.nPostings <= 2*ix.nLive {
		return
	}
	for node, ps := range ix.postings {
		live := ps[:0]
		for _, e := range ps {
			if !e.dead {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			delete(ix.postings, node)
			continue
		}
		clear(ps[len(live):]) // drop the tail's references to dead entries
		ix.postings[node] = live
	}
	ix.nPostings = ix.nLive
}

// Apply folds one committed run log's delta into the entries it touches and
// reports each of them once; entries the delta does not reach are not
// looked at. expand must read the post-commit graph (store.Store.Expand of
// the owner's backing store).
//
// The hazard rule is conservative because the pre-commit generator of an
// artifact is unknowable here — the log is already committed, on a
// follower by someone else, and two concurrent declarers can race for the
// same artifact: every generation event naming a member of an Up entry
// makes that entry suspect. Fresh artifacts are members of nothing, so the
// common all-new-IDs ingest pays nothing; on the rare hit, over-reporting
// costs warmth, never correctness. Down closures only ever grow: an
// execution's generated list and an artifact's consumers accumulate.
//
// Every other touched entry is extended from its attachment points — the
// delta's edge sources that lie inside it — with a BFS over expand that
// only walks past nodes the entry has not seen.
func (ix *Index) Apply(d Delta, expand func([]string, store.Direction) (map[string][]string, error)) []Change {
	ix.postPending()
	if len(ix.entries) == 0 {
		return nil
	}
	var changes []Change
	var suspect map[*Entry]bool
	for _, art := range d.Generated {
		for _, e := range ix.postings[art] {
			if e.dead || e.Key.Dir != store.Up || suspect[e] {
				continue
			}
			if suspect == nil {
				suspect = map[*Entry]bool{}
			}
			suspect[e] = true
			changes = append(changes, Change{Entry: e, Suspect: true})
		}
	}
	for dir, edges := range d.Edges {
		work := map[*Entry][]string{}
		for src := range edges {
			for _, e := range ix.postings[src] {
				if !e.dead && e.Key.Dir == store.Direction(dir) && !suspect[e] {
					work[e] = append(work[e], src)
				}
			}
		}
		for e, sources := range work {
			gained, err := ix.extend(e, sources, expand)
			if err != nil {
				changes = append(changes, Change{Entry: e, Suspect: true})
			} else if len(gained) > 0 {
				changes = append(changes, Change{Entry: e, Gained: gained})
			}
		}
	}
	return changes
}

// extend grows one entry from the attachment points a delta touched and
// returns the members it gained. On an expand error the entry is left as it
// was before the call: a half-walked patch would hide the levels it did
// reach from every later delta.
func (ix *Index) extend(e *Entry, sources []string, expand func([]string, store.Direction) (map[string][]string, error)) ([]string, error) {
	set := e.memberSet()
	had := len(e.order)
	frontier := sources
	for len(frontier) > 0 {
		adj, err := expand(frontier, e.Key.Dir)
		if err != nil {
			for _, n := range e.order[had:] {
				delete(set, n)
			}
			e.order = e.order[:had]
			return nil, err
		}
		var next []string
		for _, id := range frontier {
			for _, n := range adj[id] {
				// No special case for n == e.Key.ID: the backends' BFS never
				// pre-marks the seed, so a cycle-creating ingest puts the
				// root into its own closure — the patch must match that.
				if _, seen := set[n]; seen {
					continue
				}
				set[n] = struct{}{}
				e.order = append(e.order, n)
				next = append(next, n)
			}
		}
		frontier = next
	}
	gained := e.order[had:]
	for _, n := range gained {
		ix.post(n, e)
	}
	return gained, nil
}
