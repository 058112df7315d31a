package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collab/api"
	"repro/internal/query/pql"
	"repro/internal/store"
)

// opClass groups op kinds the way the metrics do: an ingest, a closure
// read (lineage, dependents or expand), a PQL query.
type opClass int

const (
	classIngest opClass = iota
	classRead
	classQuery
	numClasses
)

// phase is one stretch of load cut into equal windows. A warm-up phase has
// no windows: its ops run and are verified but not timed.
type phase struct {
	start   time.Time
	window  time.Duration
	windows int
	end     time.Time
	tracer  *tracer // switched on in odd windows; nil when untraced
}

func newPhase(d time.Duration, windows int, t *tracer) *phase {
	p := &phase{start: time.Now(), windows: windows, tracer: t}
	p.end = p.start.Add(d)
	if windows > 0 {
		p.window = d / time.Duration(windows)
	}
	return p
}

// windowOf is the window an op that completed at t counts in, -1 for none.
func (p *phase) windowOf(t time.Time) int {
	if p.windows == 0 || !t.Before(p.end) {
		return -1
	}
	return int(t.Sub(p.start) / p.window)
}

// recorder holds one client's latencies, in ms, per window and class.
type recorder struct {
	lat [][numClasses][]float64
}

func (r *recorder) reset(windows int) { r.lat = make([][numClasses][]float64, windows) }

func (r *recorder) add(p *phase, class opClass, from, done time.Time) {
	if w := p.windowOf(done); w >= 0 {
		r.lat[w][class] = append(r.lat[w][class], float64(done.Sub(from))/1e6)
	}
}

// opSeq numbers every op of the process; the number ties a client span to
// the handler span it caused.
var opSeq atomic.Uint64

// beginOp numbers an op when span recording is on (0 otherwise); endOp
// then records its client span: the interval of the call itself, which for
// an open-loop op starts later than the due time its latency counts from.
func beginOp(t *tracer) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return opSeq.Add(1)
}

func endOp(t *tracer, op uint64, call uint8, key string, dir store.Direction, start, done time.Time) {
	if op != 0 {
		t.add(span{level: levelClient, call: call, key: key, dir: dir, op: op, start: t.at(start), end: t.at(done)})
	}
}

// --- publishers ---------------------------------------------------------------

// runMix is the ingest mix, in percent: chain, fanin, diamond, fmri.
var runMix = [numFamilies]int{50, 20, 20, 10}

// publisher is one source of new runs. Its op sequence is a pure function
// of (seed, id): family by runMix, chain round-robin over the chains it
// owns, index the next unused one. Chains are partitioned among publishers
// so each chain's links are ingested in order. The first publisher also
// owns the workload's cold chains, which it starts itself: on mixed three
// chain runs in four go to those, so that the seeded chains, whose heads'
// dependents the reader keeps asking for, grow by a dozen links in a run
// and not by fifty, and a read late in the run costs about what an early one
// did.
type publisher struct {
	e        *env
	id       int
	rng      *rand.Rand
	chains   []int
	chainPos int
	next     map[int]int
	counters [numFamilies]int

	rec       recorder
	mu        sync.Mutex // guards acked and the counts under the open-loop workers
	acked     []runRef
	attempted int64
	failed    int64
}

func newPublisher(e *env, id, of int, seed uint64) *publisher {
	p := &publisher{e: e, id: id, rng: rand.New(rand.NewSource(int64(mix(seed, 1000+uint64(id))))), next: map[int]int{}}
	for c := id; c < e.sz.chains; c += of {
		p.chains = append(p.chains, c)
		p.next[c] = e.sz.chainLen
	}
	for c := e.sz.chains; id == 0 && c < e.sz.chains+e.sz.coldChains; c++ {
		p.chains = append(p.chains, c)
	}
	return p
}

// pick draws a family by its percent weights.
func pick(rng *rand.Rand, mix [numFamilies]int) Family {
	x := rng.Intn(100)
	f := Chain
	for ; f < numFamilies-1 && x >= mix[f]; f++ {
		x -= mix[f]
	}
	return f
}

func (p *publisher) nextRun() runRef {
	f := pick(p.rng, runMix)
	if f == Chain {
		c := p.chains[p.chainPos%len(p.chains)]
		p.chainPos++
		i := p.next[c]
		p.next[c]++
		return runRef{Chain, c, i}
	}
	i := p.counters[f]
	p.counters[f]++
	return runRef{f, p.id, i}
}

// put ingests one run through the top of the node's store stack — provd
// has no route that ingests a run — timed from `from`.
func (p *publisher) put(ph *phase, r runRef, from time.Time) {
	l := p.e.gen.Run(r.f, r.stream, r.index)
	op, start := beginOp(ph.tracer), time.Now()
	err := p.e.node.top.PutRunLog(l)
	done := time.Now()
	endOp(ph.tracer, op, callPut, l.Run.ID, 0, start, done)
	if from.IsZero() {
		from = start
	}
	p.mu.Lock()
	p.attempted++
	if err != nil {
		p.failed++
	} else {
		p.acked = append(p.acked, r)
		p.rec.add(ph, classIngest, from, done)
	}
	p.mu.Unlock()
}

// closedLoop publishes one run after another until the phase ends.
func (p *publisher) closedLoop(ph *phase) {
	for time.Now().Before(ph.end) {
		p.put(ph, p.nextRun(), time.Time{})
	}
}

// openLoop publishes at a fixed rate regardless of how the node keeps up:
// run k is due at start + k/rate and is timed from then, so a stall costs
// every run queued behind it. Up to openLoopWorkers runs are in flight;
// beyond that they wait in the queue, still on the clock. late collects how
// far behind its schedule the dispatcher itself ran.
const openLoopWorkers = 16

func (p *publisher) openLoop(ph *phase, rate int, late *[]float64, lag func()) {
	type due struct {
		r  runRef
		at time.Time
	}
	// Sized for the whole phase, so the dispatcher never blocks on a slow node.
	queue := make(chan due, int(ph.end.Sub(ph.start).Seconds()*float64(rate))+rate)
	var wg sync.WaitGroup
	for w := 0; w < openLoopWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				p.put(ph, d.r, d.at)
			}
		}()
	}
	gap := time.Second / time.Duration(rate)
	for k := 0; ; k++ {
		at := ph.start.Add(time.Duration(k) * gap)
		if !at.Before(ph.end) {
			break
		}
		time.Sleep(time.Until(at))
		if ph.windowOf(time.Now()) >= 0 {
			*late = append(*late, float64(time.Since(at))/1e6)
		}
		if lag != nil {
			lag()
		}
		queue <- due{p.nextRun(), at}
	}
	close(queue)
	wg.Wait()
}

// --- readers ------------------------------------------------------------------

// readSample is one recorded answer, checked against the oracle after the
// run, off the timed path.
type readSample struct {
	closure bool
	ids     []string // the root, or the expand frontier
	dir     store.Direction
	answer  []string            // closure
	adj     map[string][]string // expand
}

// sampleEvery is the share of closure reads recorded for the oracle.
const sampleEvery = 64

// rootMix is the lineage workload's root mix by family, in percent.
var rootMix = [numFamilies]int{40, 10, 30, 20}

// expandFrontier is the number of IDs in one /v1/expand request.
const expandFrontier = 16

// reader is one closed-loop HTTP client with its own connection.
type reader struct {
	e      *env
	id     int
	rng    *rand.Rand
	tr     *opTransport
	client *api.Client

	rec       recorder
	n         int64
	every     int64 // one read in this many is kept for the oracle
	samples   []readSample
	results   map[int]map[string]int // analytics: query index → result digest → count
	attempted int64
	failed    int64
	firstErr  error
}

func newReader(e *env, id int, seed uint64) *reader {
	tr := &opTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}}
	return &reader{
		e: e, id: id, tr: tr,
		rng:     rand.New(rand.NewSource(int64(mix(seed, 2000+uint64(id))))),
		client:  api.NewClient(e.node.url, &http.Client{Transport: tr, Timeout: api.DefaultTimeout}),
		results: map[int]map[string]int{}, every: sampleEvery,
	}
}

func (r *reader) closeIdle() { r.tr.base.(*http.Transport).CloseIdleConnections() }

func (r *reader) loop(ph *phase) {
	for time.Now().Before(ph.end) {
		switch {
		case r.e.w.query:
			r.query(ph)
		case r.e.w.name == "mixed":
			if r.rng.Intn(100) < 80 {
				h := r.e.hotRoots[r.rng.Intn(len(r.e.hotRoots))]
				r.closure(ph, h.id, h.dir)
			} else {
				r.expand(ph)
			}
		default:
			x := r.rng.Intn(100)
			switch {
			case x < 70:
				r.closure(ph, r.root(), store.Up)
			case x < 90:
				r.closure(ph, r.root(), store.Down)
			default:
				r.expand(ph)
			}
		}
	}
}

// root picks a seeded artifact: family by rootMix, uniform within it.
func (r *reader) root() string {
	roots := r.e.roots[pick(r.rng, rootMix)]
	return roots[r.rng.Intn(len(roots))]
}

// finish accounts for one completed read: its client span, its counts and
// its latency. It reports whether the read succeeded.
func (r *reader) finish(ph *phase, class opClass, call uint8, key string, dir store.Direction, from time.Time, err error) bool {
	done := time.Now()
	endOp(ph.tracer, r.tr.op.Swap(0), call, key, dir, from, done)
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return false
	}
	r.rec.add(ph, class, from, done)
	return true
}

func (r *reader) closure(ph *phase, id string, dir store.Direction) {
	r.tr.op.Store(beginOp(ph.tracer))
	from := time.Now()
	var ids []string
	var err error
	if dir == store.Up {
		ids, err = r.client.Lineage(id)
	} else {
		ids, err = r.client.Dependents(id)
	}
	if r.finish(ph, classRead, callClosure, id, dir, from, err) {
		if r.n++; r.n%r.every == 0 {
			r.samples = append(r.samples, readSample{closure: true, ids: []string{id}, dir: dir, answer: ids})
		}
	}
}

// expand asks for the neighbours of a run of consecutive seeded artifacts
// of one family: a frontier of related entities, as a BFS hop would send.
func (r *reader) expand(ph *phase) {
	roots := r.e.roots[r.rng.Intn(int(numFamilies))]
	at := r.rng.Intn(len(roots))
	ids := make([]string, 0, expandFrontier)
	for k := 0; k < expandFrontier && k < len(roots); k++ {
		ids = append(ids, roots[(at+k)%len(roots)])
	}
	dir := store.Direction(r.rng.Intn(2))
	r.tr.op.Store(beginOp(ph.tracer))
	from := time.Now()
	adj, err := r.client.Expand(ids, dir.String())
	if r.finish(ph, classRead, callExpand, ids[0], dir, from, err) {
		if r.n++; r.n%r.every == 0 {
			r.samples = append(r.samples, readSample{ids: ids, dir: dir, adj: adj})
		}
	}
}

// query issues the next of the workload's PQL queries; every result is
// digested for the oracle.
func (r *reader) query(ph *phase) {
	qs := r.e.queries
	k := (r.id*3 + int(r.n)) % len(qs)
	r.n++
	r.tr.op.Store(beginOp(ph.tracer))
	from := time.Now()
	res, err := r.client.Query(qs[k])
	if r.finish(ph, classQuery, callQuery, qs[k], 0, from, err) {
		if r.results[k] == nil {
			r.results[k] = map[string]int{}
		}
		r.results[k][digest(res)]++
	}
}

// digest renders a PQL result canonically. Rows are compared in the order
// the executor returned them: both stores scan runs in insertion order.
func digest(res *pql.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "\x1f"))
	for _, row := range res.Rows {
		b.WriteString("\x1e")
		b.WriteString(strings.Join(row, "\x1f"))
	}
	return b.String()
}

// pqlBattery is the analytics queries: the four experiments.E17Queries join
// forms (two selective pushdowns, ORDER BY … LIMIT, an unselective
// COUNT(*)) in this generator's vocabulary, two selective single-table
// scans, and the two closure forms, on the seeded Diamond artifacts d.
func pqlBattery(d []string) []string {
	return []string{
		"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE status = 'failed' ORDER BY artifact",
		"SELECT exec, type FROM gens JOIN artifacts ON artifact = artifacts.id WHERE type = 'image' ORDER BY exec",
		"SELECT workflow, module FROM runs JOIN executions ON runs.id = run WHERE moduleType = 'Contour' ORDER BY module LIMIT 50",
		"SELECT COUNT(*) FROM executions JOIN uses ON executions.id = exec WHERE status = 'ok'",
		"SELECT id, module FROM executions WHERE moduleType = 'Softmean'",
		"SELECT id FROM artifacts WHERE type = 'atlasGraphic' ORDER BY id",
		fmt.Sprintf("LINEAGE OF '%s'", d[len(d)-1]),
		fmt.Sprintf("DEPENDENTS OF '%s'", d[0]),
	}
}

// --- percentiles --------------------------------------------------------------

// rank is the nearest-rank position (from 1) of the p-quantile among n.
func rank(n int, p float64) int { return min(max(int(p*float64(n)+0.999999), 1), n) }

// percentile is the nearest-rank p-quantile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quiet is the quantile the end-to-end metrics take across a run's windows:
// the first quartile of the windows' latencies, the third of their rates.
// What a shared host does to a run only ever slows it, and for seconds at a
// time, so the quieter windows repeat from run to run where the middle ones
// do not; a quartile, unlike the best window, still needs a quarter of the
// run to agree. The price: a stall of the program's own that touches fewer
// than three windows in four moves these metrics less than it moves the
// whole-run numbers, which the traced run reports as loadgen.*.
const quiet = 0.25

// windowed is a latency metric as the benchmark reports it: the quiet
// quartile over the windows of each window's percentile, the total sample
// count, and the fewest samples any window had beyond the percentile.
type windowed struct {
	value   float64
	samples int
	beyond  int
	per     []float64 // each window's percentile, in time order
}

// windowPercentile pools the clients' samples per window and takes each
// window's p-quantile.
func windowPercentile(recs []*recorder, class opClass, p float64) windowed {
	out := windowed{beyond: -1}
	for w := 0; len(recs) > 0 && w < len(recs[0].lat); w++ {
		var pool []float64
		for _, r := range recs {
			pool = append(pool, r.lat[w][class]...)
		}
		if len(pool) == 0 {
			continue
		}
		sort.Float64s(pool)
		out.per = append(out.per, percentile(pool, p))
		out.samples += len(pool)
		if b := len(pool) - rank(len(pool), p); out.beyond < 0 || b < out.beyond {
			out.beyond = b
		}
	}
	out.value = percentile(sortedCopy(out.per), quiet)
	return out
}

// windowRate is a throughput metric as the benchmark reports it: the ops of
// a class completed in each window, per second, and the quiet quartile of
// those (the third, higher being better).
func windowRate(recs []*recorder, class opClass, window time.Duration) (rate float64, per []float64) {
	for w := 0; len(recs) > 0 && w < len(recs[0].lat); w++ {
		n := 0
		for _, r := range recs {
			n += len(r.lat[w][class])
		}
		per = append(per, float64(n)/window.Seconds())
	}
	return percentile(sortedCopy(per), 1-quiet), per
}

// pooled is every timed latency of a class, over all clients and windows.
func pooled(recs []*recorder, class opClass) []float64 {
	var out []float64
	for _, r := range recs {
		for w := range r.lat {
			out = append(out, r.lat[w][class]...)
		}
	}
	return out
}

// countOps is the number of timed ops of a class, over the windows `only`
// admits.
func countOps(recs []*recorder, class opClass, only func(w int) bool) int {
	n := 0
	for _, r := range recs {
		for w := range r.lat {
			if only == nil || only(w) {
				n += len(r.lat[w][class])
			}
		}
	}
	return n
}
