package closurecache

import (
	"math/bits"
	"slices"

	"repro/internal/provenance"
	"repro/internal/store"
)

// Key addresses one maintained closure: a root entity and a direction.
type Key struct {
	ID  string
	Dir store.Direction
}

// Entry is one maintained closure, in the handles of its Index's
// dictionary. root is Key.ID's handle; order is the visit order (the
// admitted closure plus each patch's newly reached nodes in discovery
// order). set indexes order for membership tests during patching and is nil
// until the first patch (see memberSet). An entry is posted into the
// reverse index by the first Apply after its admission. An evicted entry is
// dead: unreachable through Lookup, skipped wherever the reverse index
// still points at it.
type Entry struct {
	Key    Key
	root   int32
	order  []int32
	set    *handleSet
	dead   bool
	posted bool
}

// memberSet returns the entry's membership index, building it from order
// on first use.
func (e *Entry) memberSet() *handleSet {
	if e.set == nil {
		e.set = &handleSet{}
		e.set.resize(len(e.order))
		for _, h := range e.order {
			e.set.add(h)
		}
	}
	return e.set
}

// handleSet is a set of handles by open addressing: linear probing in a
// power-of-two table kept at most half full, indexed by a multiplicative
// hash of the handle. A patch probes it once per neighbour its BFS reaches,
// right after the dictionary lookup that gave the handle, so the probe is
// kept to a multiply and a load or two rather than a second map access.
type handleSet struct {
	slots []int32 // handle+1, 0 for an empty slot
	shift uint    // 32 - log2(len(slots))
	n     int
}

// add inserts h, reporting whether it was absent.
func (s *handleSet) add(h int32) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.resize(s.n + 1)
	}
	mask := len(s.slots) - 1
	for i := int(uint32(h) * 0x9E3779B1 >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = h + 1
			s.n++
			return true
		case h + 1:
			return false
		}
	}
}

// resize rehashes into a table with room for n handles.
func (s *handleSet) resize(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	old := s.slots
	s.slots, s.shift, s.n = make([]int32, size), uint(32-bits.TrailingZeros(uint(size))), 0
	for _, v := range old {
		if v != 0 {
			s.add(v - 1)
		}
	}
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
// appended (in discovery order, in a slice the caller owns), or Suspect
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
//
// Entries, postings and the snapshot all speak one handle space: ids is the
// dictionary (handle -> entity ID) and handles its inverse. The dictionary
// only grows while the Index lives — by the distinct IDs of the backing
// store at most — and an owner that flushes builds a new Index.
type Index struct {
	entries map[Key]*Entry

	ids     []string
	handles map[string]int32

	// Reverse index, addressed by handle: the posted entries whose closure
	// contains the entity (roots included), one posting per (entity,
	// entry) membership; shorter than ids until a posting needs the room.
	// Postings of evicted entries stay as tombstones until Sweep;
	// nPostings counts every posting held and nLive those of live entries.
	postings  [][]*Entry
	nPostings int
	nLive     int

	// pending holds the entries admitted since the last Apply, which posts
	// them: Apply is the only reader of postings, so an owner that never
	// ingests posts no member and never sweeps. Dead entries stay listed
	// until the list outgrows twice the live entries.
	pending []*Entry
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{entries: map[Key]*Entry{}, handles: map[string]int32{}}
}

// intern returns id's handle, adding id to the dictionary if it is new.
func (ix *Index) intern(id string) int32 {
	h, ok := ix.handles[id]
	if !ok {
		h = int32(len(ix.ids))
		ix.ids = append(ix.ids, id)
		ix.handles[id] = h
	}
	return h
}

// Members returns the entry's closure in visit order, as IDs in a fresh
// slice the caller owns.
func (ix *Index) Members(e *Entry) []string {
	ids, order := ix.ids, e.order
	out := make([]string, len(order))
	for i, h := range order {
		out[i] = ids[h]
	}
	return out
}

// Len reports the number of live entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Lookup returns the live entry under k, or nil.
func (ix *Index) Lookup(k Key) *Entry { return ix.entries[k] }

// Admit inserts a freshly computed closure under a key that has no live
// entry. It keeps order as handles and leaves the postings to the next
// Apply. A closure is interned in visit order, so one admitted again, or
// one that shares a stretch of another's visit order, meets its members in
// the order they got their handles: each member is first compared with the
// ID after the previous member's handle, and only a mismatch costs a
// dictionary probe.
func (ix *Index) Admit(k Key, order []string) *Entry {
	root := ix.intern(k.ID)
	hs := make([]int32, len(order))
	h := root
	for i, id := range order {
		if h++; int(h) >= len(ix.ids) || ix.ids[h] != id {
			h = ix.intern(id)
		}
		hs[i] = h
	}
	return ix.install(&Entry{Key: k, root: root, order: hs})
}

// install makes e the live entry under its key, waiting for its postings.
func (ix *Index) install(e *Entry) *Entry {
	ix.entries[e.Key] = e
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
		ix.post(e.root, e)
		for _, h := range e.order {
			ix.post(h, e)
		}
	}
	clear(ix.pending)
	ix.pending = ix.pending[:0]
}

// post records that e's closure contains the entity with handle h.
func (ix *Index) post(h int32, e *Entry) {
	for int(h) >= len(ix.postings) {
		ix.postings = append(ix.postings, nil)
	}
	ix.postings[h] = append(ix.postings[h], e)
	ix.nPostings++
	ix.nLive++
}

// postingsOf returns the postings of the entity id, none for an ID the
// dictionary does not hold — which no closure contains.
func (ix *Index) postingsOf(id string) []*Entry {
	if h, ok := ix.handles[id]; ok && int(h) < len(ix.postings) {
		return ix.postings[h]
	}
	return nil
}

// Sweep removes every tombstone from the reverse index once they outnumber
// the live postings, so the index stays within twice its live size at an
// amortized O(1) per evicted member.
func (ix *Index) Sweep() {
	if ix.nPostings <= 2*ix.nLive {
		return
	}
	for h, ps := range ix.postings {
		live := ps[:0]
		for _, e := range ps {
			if !e.dead {
				live = append(live, e)
			}
		}
		clear(ps[len(live):]) // drop the tail's references to dead entries
		if len(live) == 0 {
			live = nil
		}
		ix.postings[h] = live
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
		for _, e := range ix.postingsOf(art) {
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
			for _, e := range ix.postingsOf(src) {
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
// returns the members it gained, by ID. On an expand error the entry is
// left as it was before the call: a half-walked patch would hide the levels
// it did reach from every later delta.
func (ix *Index) extend(e *Entry, sources []string, expand func([]string, store.Direction) (map[string][]string, error)) ([]string, error) {
	set := e.memberSet()
	had := len(e.order)
	var gained []string
	frontier := sources
	for len(frontier) > 0 {
		adj, err := expand(frontier, e.Key.Dir)
		if err != nil {
			e.order, e.set = e.order[:had], nil // the next patch rebuilds the set
			return nil, err
		}
		next := len(gained)
		for _, id := range frontier {
			for _, n := range adj[id] {
				// No special case for n == e.Key.ID: the backends' BFS never
				// pre-marks the seed, so a cycle-creating ingest puts the
				// root into its own closure — the patch must match that.
				h := ix.intern(n)
				if !set.add(h) {
					continue
				}
				e.order = append(e.order, h)
				gained = append(gained, n)
			}
		}
		frontier = gained[next:]
	}
	for _, h := range e.order[had:] {
		ix.post(h, e)
	}
	return gained, nil
}
