// Package standing maintains live query subscriptions over the store
// stack: a client registers a query — a triple pattern, the closure
// membership of an entity (its lineage or dependents), or a conjunctive
// Datalog query over the extensional provenance schema — and receives an
// initial result snapshot plus a stream of add/remove deltas as ingest
// proceeds. This is the "millions of users watching lineage" serving
// layer the ROADMAP names, in the FO+MOD
// queries-under-updates direction (Berkholz et al.): each accepted run
// log is folded into every affected subscription at delta cost, never by
// re-running the query.
//
// # Maintenance per kind
//
//   - Triple-pattern subscriptions match the ingest's flattened triples
//     (store.TriplesOf, the same flattening the triple backend and the
//     closure cache use) against a predicate-bucketed index, so an ingest
//     touches only the subscriptions whose predicate it mentions.
//   - Closure subscriptions are entries of a closurecache.Index — the
//     same maintenance index, delta path and hazard rule the closure cache
//     keeps its memoized closures fresh with; only the answer to a suspect
//     entry differs. Members an ingest's delta adds are published as one
//     add event; an entry the index reports suspect (a generation event
//     named a member of an upstream closure — possibly a generator
//     replacement — or the patch's traversal failed) is recomputed fresh
//     and the add/remove difference published, where the cache evicts.
//     Subscriptions on the same (root, direction) share one entry.
//   - Conjunctive subscriptions are maintained rules of one
//     datalog.Program the manager loads at the first conjunctive
//     Subscribe: each distinct (query, output) pair is one rule
//     q#n(out…) :- body, an ingest adds the log's extensional facts and
//     runs the program's incremental Evaluate (a semi-naive round over
//     just those facts), and the rule's new head facts become add events.
//     The facts are exactly LoadStore's schema, shared via
//     datalog.LogFacts, so a subscription's incremental result always
//     equals a fresh re-query; the last unsubscribe retires the rule.
//
// # Delivery
//
// Every subscription carries a monotone sequence number and a bounded
// replay ring: EventsSince(id, after) returns the events a consumer
// missed, and a consumer that fell behind the ring (a stalled SSE client)
// receives an explicit gap event followed by a fresh snapshot at the
// current sequence — ingest never blocks on consumers, and a slow
// consumer costs one ring of memory, never correctness. provd serves this
// over GET /v1/subscriptions/{id}/events as SSE with Last-Event-ID
// resume (internal/collab).
package standing

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/query/datalog"
	"repro/internal/store"
	"repro/internal/store/closurecache"
)

// Subscription observability, surfaced via /v1/metrics.
var (
	mStandingActive  = obs.Default().Gauge("prov_standing_subscriptions_active", "Registered standing-query subscriptions.")
	mStandingDeltas  = obs.Default().Counter("prov_standing_deltas_total", "Add/remove delta events published to standing subscriptions.")
	mStandingPatch   = obs.Default().Histogram("prov_standing_patch_seconds", "Per-ingest standing-subscription maintenance latency.")
	mStandingDropped = obs.Default().Counter("prov_standing_dropped_total", "Replay-ring evictions delivered as gap events (slow consumers).")
)

// Kind selects a subscription's query shape.
type Kind string

const (
	// KindTriple watches a triple pattern (empty fields are wildcards).
	KindTriple Kind = "triple"
	// KindClosure watches the transitive closure of a root entity in one
	// direction — its lineage (Up) or dependents (Down).
	KindClosure Kind = "closure"
	// KindConjunctive watches a conjunctive Datalog query over the
	// extensional schema (datalog.LoadStore), e.g.
	// "used(E, A), generated(E, B)".
	KindConjunctive Kind = "conjunctive"
)

// Spec describes one subscription. Exactly the fields of its Kind matter.
type Spec struct {
	Kind Kind

	// Closure subscriptions.
	Root string
	Dir  store.Direction

	// Triple subscriptions.
	Pattern store.Triple

	// Conjunctive subscriptions: comma-separated body atoms and the output
	// variables (empty: every variable, first-occurrence order).
	Query  string
	Output []string
}

// Event is one element of a subscription's stream. Items are entity IDs
// (closure), "S P O" triples (triple), or space-joined output rows
// (conjunctive) — uniformly strings, so one delivery path serves all
// kinds.
type Event struct {
	Seq   uint64   `json:"seq"`
	Type  string   `json:"type"`
	Items []string `json:"items,omitempty"`
}

// Event types.
const (
	EventSnapshot = "snapshot" // full current result (initial, or after a gap)
	EventAdd      = "add"      // items entered the result
	EventRemove   = "remove"   // items left the result
	EventGap      = "gap"      // replay ring evicted events; a snapshot follows
)

// Snapshot is a subscription's full result at a sequence point; events
// with Seq > Seq continue from it.
type Snapshot struct {
	ID    string   `json:"id"`
	Seq   uint64   `json:"seq"`
	Items []string `json:"items"`
}

// Info describes a registered subscription.
type Info struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	Seq  uint64 `json:"seq"`
	Size int    `json:"size"` // current result cardinality
}

// Options tunes a Manager. The zero value picks sensible defaults.
type Options struct {
	// ReplayRing bounds each subscription's event replay buffer (default
	// 256 events). A consumer that falls behind it receives a gap event
	// and a fresh snapshot instead of the lost deltas.
	ReplayRing int
}

func (o Options) withDefaults() Options {
	if o.ReplayRing <= 0 {
		o.ReplayRing = 256
	}
	return o
}

// sub is one registered subscription: its spec, its accumulated result set
// (triple kind; a closure subscription's result is its index entry's
// members, a conjunctive one's its group's head facts) and the bounded
// replay ring.
type sub struct {
	id   string
	spec Spec
	set  map[string]struct{}

	buf    []Event       // replay ring, seqs last-len+1 .. last
	last   uint64        // sequence of the newest published event
	notify chan struct{} // closed on publish (and unsubscribe), then replaced

	group *conjGroup // conjunctive subscriptions' shared query, nil otherwise
}

// closureKey addresses a closure subscription's entry in the shared index.
func (s *sub) closureKey() closurecache.Key {
	return closurecache.Key{ID: s.spec.Root, Dir: s.spec.Dir}
}

// closureMembersLocked returns a closure subscription's result: its index
// entry's members in a fresh slice, unsorted.
func (m *Manager) closureMembersLocked(s *sub) []string {
	return m.closures.Members(m.closures.Lookup(s.closureKey()))
}

// itemsLocked returns the subscription's current result, sorted.
func (m *Manager) itemsLocked(s *sub) []string {
	switch s.spec.Kind {
	case KindClosure:
		items := m.closureMembersLocked(s)
		sort.Strings(items)
		return items
	case KindConjunctive:
		return rowItems(m.prog.FactsSince(s.group.pred, 0))
	}
	out := make([]string, 0, len(s.set))
	for it := range s.set {
		out = append(out, it)
	}
	sort.Strings(out)
	return out
}

// Manager owns the subscriptions and folds ingest deltas into them. Place
// it at the top of the store stack with NewTap (or register ApplyDelta as a
// follower's observer, after the closure cache's) so every accepted run log
// reaches it exactly once.
type Manager struct {
	st  store.Store
	opt Options

	mu     sync.Mutex
	subs   map[string]*sub
	nextID uint64

	// closures maintains the closure subscriptions' results — one entry
	// per watched (root, direction) — and watchers maps each entry's key to
	// the subscriptions on it.
	closures *closurecache.Index
	watchers map[closurecache.Key][]*sub
	// tripleIdx buckets triple subscriptions by pattern predicate (""
	// holds predicate wildcards), so an ingest's triples probe only the
	// subscriptions naming their predicate.
	tripleIdx map[string]map[*sub]struct{}

	// prog holds the extensional facts of every stored log and one rule
	// per conjunctive group (conj.go); nil until the first conjunctive
	// Subscribe, kept current by every ingest after it. groups maps each
	// group's query and output to it; nextRule numbers the rules' heads.
	prog     *datalog.Program
	groups   map[string]*conjGroup
	nextRule int
}

// NewManager builds a Manager reading from st — the same store stack the
// Tap commits through, so delta BFS and snapshots see every ingest.
func NewManager(st store.Store, opt Options) *Manager {
	return &Manager{
		st:        st,
		opt:       opt.withDefaults(),
		subs:      map[string]*sub{},
		closures:  closurecache.NewIndex(),
		watchers:  map[closurecache.Key][]*sub{},
		tripleIdx: map[string]map[*sub]struct{}{},
		groups:    map[string]*conjGroup{},
	}
}

// Store returns the store the manager reads from.
func (m *Manager) Store() store.Store { return m.st }

// Subscribe validates the spec, computes the initial result and registers
// the subscription, all atomically with respect to ApplyDelta — an ingest
// is reflected either in the snapshot or in a later event, never both,
// never neither.
func (m *Manager) Subscribe(spec Spec) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	s := &sub{spec: spec, set: map[string]struct{}{}, notify: make(chan struct{})}
	switch spec.Kind {
	case KindClosure:
		if spec.Root == "" {
			return Snapshot{}, errors.New("standing: closure subscription needs a root entity")
		}
		if k := s.closureKey(); m.closures.Lookup(k) == nil {
			order, err := m.st.Closure(spec.Root, spec.Dir)
			if err != nil && !errors.Is(err, store.ErrNotFound) {
				return Snapshot{}, err
			}
			// An unknown root is an empty result, not an error: the
			// subscription attaches when the entity first appears.
			m.closures.Admit(k, order)
		}
	case KindTriple:
		if err := m.tripleSnapshotLocked(s); err != nil {
			return Snapshot{}, err
		}
	case KindConjunctive:
		g, err := m.conjGroupLocked(spec)
		if err != nil {
			return Snapshot{}, err
		}
		s.group = g
	default:
		return Snapshot{}, fmt.Errorf("standing: unknown subscription kind %q", spec.Kind)
	}

	m.nextID++
	s.id = fmt.Sprintf("sub-%06d", m.nextID)
	m.subs[s.id] = s
	m.indexLocked(s)
	mStandingActive.Set(int64(len(m.subs)))
	return Snapshot{ID: s.id, Seq: 0, Items: m.itemsLocked(s)}, nil
}

// Unsubscribe removes a subscription; its waiters wake and observe the
// removal. Reports whether the id existed.
func (m *Manager) Unsubscribe(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return false
	}
	delete(m.subs, id)
	m.unindexLocked(s)
	close(s.notify)
	mStandingActive.Set(int64(len(m.subs)))
	return true
}

// List returns every registered subscription, id-ordered.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.subs))
	for _, s := range m.subs {
		size := len(s.set)
		switch s.spec.Kind {
		case KindClosure:
			size = len(m.closureMembersLocked(s))
		case KindConjunctive:
			size = m.prog.FactCount(s.group.pred)
		}
		out = append(out, Info{ID: s.id, Spec: s.spec, Seq: s.last, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Snapshot returns a subscription's full current result and the sequence
// it is valid at — the re-snapshot a consumer takes after a gap event.
func (m *Manager) Snapshot(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return Snapshot{}, false
	}
	return Snapshot{ID: s.id, Seq: s.last, Items: m.itemsLocked(s)}, true
}

// EventsSince returns the events published after sequence `after`, or —
// when the replay ring has evicted any of them — an explicit gap event
// followed by a fresh snapshot at the current sequence. ok=false means no
// such subscription (deleted or never existed).
func (m *Manager) EventsSince(id string, after uint64) ([]Event, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return nil, false
	}
	if after >= s.last {
		return nil, true
	}
	start := s.last - uint64(len(s.buf)) + 1
	if after+1 < start {
		// The consumer fell behind the ring: the lost deltas are gone, so
		// force a re-snapshot inline. Both synthesized events carry the
		// current sequence; resuming from it continues losslessly.
		mStandingDropped.Inc()
		return []Event{
			{Seq: s.last, Type: EventGap},
			{Seq: s.last, Type: EventSnapshot, Items: m.itemsLocked(s)},
		}, true
	}
	out := make([]Event, 0, s.last-after)
	for _, ev := range s.buf {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out, true
}

// Changed returns a channel closed at the next publish (or unsubscribe)
// for the subscription. A nil channel with ok=true means events after
// `after` are already pending — poll EventsSince instead of waiting. The
// check and the channel handoff are atomic, so a publish between an empty
// EventsSince and Changed is never missed.
func (m *Manager) Changed(id string, after uint64) (<-chan struct{}, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return nil, false
	}
	if s.last > after {
		return nil, true
	}
	return s.notify, true
}

// publishLocked appends one event to the subscription's replay ring,
// evicting the oldest event at capacity, and wakes waiters.
func (m *Manager) publishLocked(s *sub, typ string, items []string) {
	s.last++
	ev := Event{Seq: s.last, Type: typ, Items: items}
	if len(s.buf) >= m.opt.ReplayRing {
		copy(s.buf, s.buf[1:])
		s.buf[len(s.buf)-1] = ev
	} else {
		s.buf = append(s.buf, ev)
	}
	if typ == EventAdd || typ == EventRemove {
		mStandingDeltas.Inc()
	}
	close(s.notify)
	s.notify = make(chan struct{})
}

// --- spec indexes -------------------------------------------------------------

func (m *Manager) indexLocked(s *sub) {
	switch s.spec.Kind {
	case KindClosure:
		k := s.closureKey()
		m.watchers[k] = append(m.watchers[k], s)
	case KindTriple:
		bucket := m.tripleIdx[s.spec.Pattern.P]
		if bucket == nil {
			bucket = map[*sub]struct{}{}
			m.tripleIdx[s.spec.Pattern.P] = bucket
		}
		bucket[s] = struct{}{}
	case KindConjunctive:
		s.group.subs = append(s.group.subs, s)
	}
}

func (m *Manager) unindexLocked(s *sub) {
	switch s.spec.Kind {
	case KindClosure:
		k := s.closureKey()
		rest := slices.DeleteFunc(m.watchers[k], func(w *sub) bool { return w == s })
		if len(rest) > 0 {
			m.watchers[k] = rest
			break
		}
		delete(m.watchers, k)
		m.closures.Evict(m.closures.Lookup(k))
		m.closures.Sweep()
	case KindTriple:
		if bucket, ok := m.tripleIdx[s.spec.Pattern.P]; ok {
			delete(bucket, s)
			if len(bucket) == 0 {
				delete(m.tripleIdx, s.spec.Pattern.P)
			}
		}
	case KindConjunctive:
		g := s.group
		if g.subs = slices.DeleteFunc(g.subs, func(w *sub) bool { return w == s }); len(g.subs) == 0 {
			// The last subscriber left: the rule and its head facts go.
			// No rule reads a group's head predicate, so Retire cannot
			// refuse it.
			delete(m.groups, g.key)
			_ = m.prog.Retire(g.pred)
		}
	}
}

// TripleItem renders a triple as a subscription item.
func TripleItem(t store.Triple) string {
	return t.S + " " + t.P + " " + t.O
}
