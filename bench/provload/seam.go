package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/provenance"
	"repro/internal/store"
)

// The boundaries spans are recorded at, outermost first: the load
// generator's call (an api.Client method, or PutRunLog on the top of the
// stack), the http.Handler, and the store.Store above the Tap, above the
// closure cache and above the router (or the single FileStore).
const (
	levelClient = iota
	levelHandler
	levelTap
	levelCache
	levelStore
	numLevels
)

var levelName = [numLevels]string{"client", "collab.handler", "tap", "cache", "store"}

// The calls spans are recorded around.
const (
	callPut = iota
	callClosure
	callExpand
	callQuery
	numCalls
)

// callName doubles as the op kind of a client span.
var callName = [numCalls]string{"ingest", "closure", "expand", "query"}

// span is one interval at a layer boundary. Store methods carry no
// context, so a seam cannot know which request it serves; what it records
// instead is the call and its argument, and link ties the spans of one
// request together afterwards.
type span struct {
	level, call uint8
	dir         store.Direction
	key         string // run ID, closure seed, or first expand ID
	start, end  int64  // ns since the tracer's epoch
	op          uint64 // client and handler spans: the load generator's op ID; others: set by link
	parent      int32  // set by link: index of the enclosing span, -1 for none
	bytes       int64  // handler spans: response bytes
}

// tracer records spans from the benchmark's own forwarding wrappers.
// Recording is switched per measurement window: with it off every wrapper
// is a plain forward, which is what the traced run's reference windows
// measure trace.overhead_ratio against.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	offs  []int64 // when recording was switched off
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record switches span recording. An op in flight when it goes off is only
// partly recorded; offs lets link drop it.
func (t *tracer) record(on bool) {
	if !on && t.on.Load() {
		t.mu.Lock()
		t.offs = append(t.offs, t.at(time.Now()))
		t.mu.Unlock()
	}
	t.on.Store(on)
}

// link resolves parents once the traced load has stopped. A client span's
// child is the handler span carrying its op ID; below that, the child of a
// span is the span one level down around the same call — same run ID or
// closure seed, or for Expand (where the cache forwards only the IDs it
// misses) the same direction — that lies inside its interval. Spans left
// without a parent are the layers' own calls into the layers beneath them
// (the cache's patch BFS, the standing manager's reads): their time stays
// in the self time of the layer that made them, which is where an
// optimisation of that layer would show.
//
// The result is the spans sorted by start; ops whose client span straddles
// a recording switch are left unlinked.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	type sig struct {
		level, call uint8
		dir         store.Direction
		key         string
	}
	sigOf := func(s span, level uint8) sig {
		k := sig{level: level, call: s.call, dir: s.dir, key: s.key}
		if s.call == callExpand {
			k.key = ""
		}
		return k
	}
	pool := map[sig][]int32{} // unclaimed spans per signature, in start order
	handlers := map[uint64]int32{}
	for i, s := range spans {
		switch s.level {
		case levelClient:
		case levelHandler:
			handlers[s.op] = int32(i)
		default:
			pool[sigOf(s, s.level)] = append(pool[sigOf(s, s.level)], int32(i))
		}
	}
	claimed := make([]bool, len(spans))
	claim := func(parent int32, level uint8) int32 {
		p := spans[parent]
		for _, i := range pool[sigOf(p, level)] {
			c := spans[i]
			if c.start > p.end {
				break
			}
			if !claimed[i] && c.start >= p.start && c.end <= p.end {
				claimed[i] = true
				return i
			}
		}
		return -1
	}
	for i := range spans {
		c := &spans[i]
		if c.level != levelClient {
			continue
		}
		broken := false
		for _, off := range t.offs {
			broken = broken || (c.start <= off && off <= c.end)
		}
		if broken {
			c.op = 0
			continue
		}
		parent := int32(i)
		if h, ok := handlers[c.op]; ok {
			spans[h].parent = parent
			spans[h].call, spans[h].dir, spans[h].key = c.call, c.dir, c.key
			parent = h
		}
		for level := uint8(levelTap); level < numLevels; level++ {
			next := claim(parent, level)
			if next < 0 {
				continue // a workload without this layer's call: a cache hit never reaches the store
			}
			spans[next].parent, spans[next].op = parent, c.op
			parent = next
		}
	}
	return spans
}

// writeJSONL writes linked spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		name := levelName[s.level]
		if s.level != levelHandler {
			name += "." + callName[s.call]
		}
		if err := enc.Encode(struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Op     uint64 `json:"op_id"`
		}{name, s.start, s.end, s.parent, s.op}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seam is a forwarding store.Store that records a span around the three
// calls the serving path makes (PutRunLog, Closure, Expand). Everything
// else, including the capability methods the layers above discover by type
// assertion, forwards untouched, so the traced stack runs the same code.
type seam struct {
	store.Store
	t     *tracer
	level uint8
}

// tripleSeam adds the triple-matcher face, only for an inner store that
// has it: the closure cache starts memoizing patterns the moment its
// backing store answers to MatchBatch.
type tripleSeam struct {
	*seam
	m tripleMatcher
}

type tripleMatcher interface {
	Match(subj, pred, obj string) []store.Triple
	MatchBatch(patterns []store.Triple) [][]store.Triple
}

func (t *tracer) seam(level uint8, inner store.Store) store.Store {
	s := &seam{Store: inner, t: t, level: level}
	if m, ok := inner.(tripleMatcher); ok {
		return &tripleSeam{seam: s, m: m}
	}
	return s
}

func (s *tripleSeam) Match(subj, pred, obj string) []store.Triple  { return s.m.Match(subj, pred, obj) }
func (s *tripleSeam) MatchBatch(p []store.Triple) [][]store.Triple { return s.m.MatchBatch(p) }

// Underlying lets scan.Unwrap and replica.NewSource peel the seam off.
func (s *seam) Underlying() store.Store { return s.Store }

// Checkpoint forwards store.Checkpointer, which the cache and the Tap
// look for on the store beneath them.
func (s *seam) Checkpoint() error {
	if ck, ok := s.Store.(store.Checkpointer); ok {
		return ck.Checkpoint()
	}
	return nil
}

func (s *seam) PutRunLog(l *provenance.RunLog) error {
	if !s.t.on.Load() {
		return s.Store.PutRunLog(l)
	}
	start := time.Now()
	err := s.Store.PutRunLog(l)
	s.t.add(span{level: s.level, call: callPut, key: l.Run.ID, start: s.t.at(start), end: s.t.at(time.Now())})
	return err
}

func (s *seam) Closure(seed string, dir store.Direction) ([]string, error) {
	if !s.t.on.Load() {
		return s.Store.Closure(seed, dir)
	}
	start := time.Now()
	ids, err := s.Store.Closure(seed, dir)
	s.t.add(span{level: s.level, call: callClosure, dir: dir, key: seed, start: s.t.at(start), end: s.t.at(time.Now())})
	return ids, err
}

func (s *seam) Expand(ids []string, dir store.Direction) (map[string][]string, error) {
	if !s.t.on.Load() || len(ids) == 0 {
		return s.Store.Expand(ids, dir)
	}
	start := time.Now()
	adj, err := s.Store.Expand(ids, dir)
	s.t.add(span{level: s.level, call: callExpand, dir: dir, key: ids[0], start: s.t.at(start), end: s.t.at(time.Now())})
	return adj, err
}

// opHeader carries the load generator's op ID to the handler seam. It is
// the header the program itself propagates as the request ID.
const opHeader = "X-Request-ID"

// handler wraps the node's http.Handler with the handler span. Requests
// that carry no op ID (the follower's replication polls) pass through.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if op == 0 || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.add(span{level: levelHandler, op: op, bytes: cw.n, start: t.at(start), end: t.at(time.Now())})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// opTransport stamps each request with the op ID its client goroutine set
// before the call. One transport serves one closed-loop client, so one op
// is in flight at a time.
type opTransport struct {
	base http.RoundTripper
	op   atomic.Uint64
}

func (o *opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op := o.op.Load(); op != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	return o.base.RoundTrip(r)
}
