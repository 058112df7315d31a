package store

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/provenance"
)

// entityTable is a FileStore's resident graph index: every entity ID is
// interned once to a dense int32 handle, and one record per handle holds
// everything navigation needs — owning runs (which also say what kind of
// entity the ID names), current generator and the three neighbour lists
// as handles. A traversal pays one string hash
// per ID entering it from outside (the seed, an Expand frontier) and then
// walks handles; strings reappear only in the result handed back through
// the store.Store methods.
//
// Neighbour lists are kept sorted by entity ID and duplicate-free by the
// fold, so reads never sort, dedup or classify.
type entityTable struct {
	handles map[string]int32
	ents    []entity
	nArt    int // records stored as an artifact
	nExec   int // records stored as an execution
}

// noRun and noGen mark an owning run or a generator that does not exist.
const (
	noRun int32 = -1
	noGen int32 = -1
)

// entity is one interned ID's record. artRun and execRun index the
// store's run order: the last run that declared the ID as an artifact or
// as an execution, whose record holds the full entity, and noRun when no
// run did. An ID declared as both keeps both, and traversal classifies it
// as an artifact (see adjacent), the rule every backend shares; a record
// with neither was only ever referenced by an event and is unknown to
// every read. genRun is the run whose generation event set gen — not
// artRun, which a later run moves by re-declaring the artifact without
// generating it — and means nothing while gen is noGen.
type entity struct {
	id        string
	artRun    int32
	execRun   int32
	gen       [1]int32 // generator handle, last write wins; noGen when none (an array so adjacent can slice it)
	genRun    int32    // fills what was padding: the record stays 104 bytes
	consumers []int32  // executions that used this artifact
	used      []int32  // artifacts this execution consumed
	generated []int32  // artifacts this execution produced
}

func newEntityTable() *entityTable {
	return &entityTable{handles: map[string]int32{}}
}

// intern returns id's handle, appending a blank record the first time the
// ID is seen. It may grow ents: take record pointers only after the last
// intern of a step.
func (t *entityTable) intern(id string) int32 {
	if h, ok := t.handles[id]; ok {
		return h
	}
	h := int32(len(t.ents))
	t.handles[id] = h
	t.ents = append(t.ents, entity{id: id, artRun: noRun, execRun: noRun, gen: [1]int32{noGen}})
	return h
}

// lookup resolves an ID to the record of a stored entity: nil for an ID
// never seen and for one only referenced by events.
func (t *entityTable) lookup(id string) *entity {
	h, ok := t.handles[id]
	if !ok || !t.ents[h].stored() {
		return nil
	}
	return &t.ents[h]
}

// stored reports whether any run declared the ID.
func (e *entity) stored() bool { return e.artRun != noRun || e.execRun != noRun }

// owners returns the runs holding id as an artifact and as an execution,
// noRun for a kind it was never stored as.
func (t *entityTable) owners(id string) (artRun, execRun int32) {
	if h, ok := t.handles[id]; ok {
		return t.ents[h].artRun, t.ents[h].execRun
	}
	return noRun, noRun
}

// fold indexes one run log stored as the run-th of the store's order.
// Later declarations take over an ID's owning run and an artifact's
// generator; consumer, used and generated lists accumulate across runs.
func (t *entityTable) fold(l *provenance.RunLog, run int32) {
	for _, a := range l.Artifacts {
		e := &t.ents[t.intern(a.ID)]
		if e.artRun == noRun {
			t.nArt++
		}
		e.artRun = run
	}
	for _, x := range l.Executions {
		e := &t.ents[t.intern(x.ID)]
		if e.execRun == noRun {
			t.nExec++
		}
		e.execRun = run
	}
	for _, ev := range l.Events {
		switch ev.Kind {
		case provenance.EventArtifactGen:
			a, x := t.intern(ev.ArtifactID), t.intern(ev.ExecutionID)
			t.ents[a].gen[0], t.ents[a].genRun = x, run
			t.insert(&t.ents[x].generated, a)
		case provenance.EventArtifactUsed:
			a, x := t.intern(ev.ArtifactID), t.intern(ev.ExecutionID)
			t.insert(&t.ents[a].consumers, x)
			t.insert(&t.ents[x].used, a)
		}
	}
}

// insert adds handle h to a neighbour list kept sorted by entity ID, doing
// nothing when it is already there. IDs mostly arrive in increasing order,
// which is a plain append; anything else is a binary search and one shift
// of 4-byte handles.
func (t *entityTable) insert(list *[]int32, h int32) {
	s, id := *list, t.ents[h].id
	if n := len(s); n == 0 || t.ents[s[n-1]].id < id {
		*list = append(s, h)
		return
	}
	i, found := slices.BinarySearchFunc(s, id, func(e int32, id string) int {
		return strings.Compare(t.ents[e].id, id)
	})
	if !found {
		*list = slices.Insert(s, i, h)
	}
}

// adjacent returns the record's neighbour handles in dir under the shared
// classification: an artifact's generator (Up) or consumers (Down), an
// execution's used (Up) or generated (Down) artifacts; artifact wins for
// an ID stored as both, nothing for an undeclared one. The result aliases
// the record and is valid while the store lock is held.
func (e *entity) adjacent(dir Direction) []int32 {
	switch {
	case e.artRun != noRun:
		if dir == Down {
			return e.consumers
		}
		if e.gen[0] != noGen {
			return e.gen[:]
		}
		return nil
	case e.execRun != noRun:
		if dir == Up {
			return e.used
		}
		return e.generated
	}
	return nil
}

// names turns a handle list into a caller-owned slice of IDs (nil when
// empty, as the other backends report an entity without neighbours).
func (t *entityTable) names(hs []int32) []string {
	if len(hs) == 0 {
		return nil
	}
	return t.appendNames(make([]string, 0, len(hs)), hs)
}

// appendNames appends the IDs of hs to dst.
func (t *entityTable) appendNames(dst []string, hs []int32) []string {
	for _, h := range hs {
		dst = append(dst, t.ents[h].id)
	}
	return dst
}

// closureWalks pools the walks of FileStore.Closure across calls and
// stores.
var closureWalks = sync.Pool{New: func() any { return new(LocalWalk) }}

// closure is the BFS of Store.Closure from a known seed record: per-node
// neighbours in ID order, the seed itself reported only when a cycle leads
// back to it.
func (t *entityTable) closure(seed *entity, dir Direction) []string {
	w := closureWalks.Get().(*LocalWalk)
	defer closureWalks.Put(w)
	w.Begin()
	w.cover(len(t.ents))
	visit := func(e *entity) {
		for _, n := range e.adjacent(dir) {
			w.reach(n)
		}
	}
	visit(seed)
	for i := 0; i < len(w.Order); i++ {
		visit(&t.ents[w.Order[i]])
	}
	return t.names(w.Order)
}

// The table is the handle space FileStore.CloseLocal walks.

func (t *entityTable) handle(id string) (int32, bool) {
	h, ok := t.handles[id]
	return h, ok
}

func (t *entityTable) size() int { return len(t.ents) }

func (t *entityTable) appendAdjacent(dst []int32, h int32, dir Direction) (string, []int32, bool) {
	e := &t.ents[h]
	if !e.stored() {
		return "", dst, false
	}
	return e.id, append(dst, e.adjacent(dir)...), true
}

// expand is Store.Expand over the table: an entry per stored entity among
// ids, the lists carved from one shared backing array.
func (t *entityTable) expand(ids []string, dir Direction) map[string][]string {
	out := make(map[string][]string, len(ids))
	flat := make([]string, 0, 2*len(ids))
	for _, id := range ids {
		if e := t.lookup(id); e != nil {
			out[id] = t.carve(&flat, e.adjacent(dir))
		}
	}
	return out
}

// carve returns the IDs of hs as a slice of the arena *flat, capped at its
// own length (nil when empty). When the arena has no room left it is
// replaced, not grown: lists carved earlier keep the old backing array, so
// nothing is copied and a long list gets an array of exactly its size.
func (t *entityTable) carve(flat *[]string, hs []int32) []string {
	if len(hs) == 0 {
		return nil
	}
	if cap(*flat)-len(*flat) < len(hs) {
		*flat = make([]string, 0, max(len(hs), 2*cap(*flat)))
	}
	from := len(*flat)
	*flat = t.appendNames(*flat, hs)
	return (*flat)[from:len(*flat):len(*flat)]
}
