package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/query/pql"
	"repro/internal/query/scan"
	"repro/internal/store/closurecache"
	"repro/internal/store/wal"
)

// snapshot is the state of everything the traced run reads from outside
// the program's layers at one instant: the process-wide internal/obs
// registry, the node's own cache and WAL counters, and the Go runtime.
// Per-layer metrics are differences of two snapshots around the timed
// phase, the way experiments.E19 reads the same instruments.
type snapshot struct {
	series map[string]float64 // every counter, _sum and _count series in the exposition
	hists  map[string]obs.HistSnapshot
	cache  closurecache.Metrics
	wal    wal.Metrics
	mem    runtime.MemStats
	cpu    time.Duration
}

// histograms are the unlabelled latency and value histograms quantiles are
// read from.
var histograms = []string{
	"prov_store_ingest_seconds", "prov_store_closure_seconds", "prov_store_expand_seconds",
	"prov_wal_commit_seconds", "prov_wal_batch_records",
	"prov_router_closure_rounds", "prov_router_closure_crossings", "prov_router_scatter_shards",
	"prov_cache_patch_seconds", "prov_standing_patch_seconds", "prov_replica_apply_seconds",
}

func takeSnapshot(n *node) snapshot {
	s := snapshot{series: map[string]float64{}, hists: map[string]obs.HistSnapshot{}}
	var buf bytes.Buffer
	_ = obs.Default().WritePrometheus(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				s.series[line[:i]] = v
			}
		}
	}
	for _, name := range histograms {
		if h, ok := obs.Default().FindHistogram(name); ok {
			s.hists[name] = h.Snapshot()
		}
	}
	if n.cache != nil {
		s.cache = n.cache.Metrics()
	}
	for _, fs := range n.files {
		m := fs.WALMetrics()
		s.wal.Appends += m.Appends
		s.wal.Batches += m.Batches
		s.wal.Syncs += m.Syncs
		s.wal.Bytes += m.Bytes
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// delta sums, over every series whose name starts with prefix and whose
// label set contains each of has, the growth between two snapshots.
func delta(before, after snapshot, prefix string, has ...string) float64 {
	var d float64
series:
	for k, v := range after.series {
		if !strings.HasPrefix(k, prefix) || (len(k) > len(prefix) && k[len(prefix)] != '{') {
			continue
		}
		for _, h := range has {
			if !strings.Contains(k, h) {
				continue series
			}
		}
		d += v - before.series[k]
	}
	return d
}

func histDelta(before, after snapshot, name string) obs.HistSnapshot {
	return after.hists[name].Sub(before.hists[name])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probes are the direct timed calls into the query layers, which
// scan.Unwrap routes around every seam. They run after the timed phase, on
// the store the workload left behind.
type probes struct {
	scanMs       float64
	scanRuns     int
	scanShards   int
	parseUs      []float64
	execMs       []float64
	allocBytes   float64
	examined     float64
	returned     float64
	operatorRows float64
	loadUs       []float64
}

func runProbes(e *env, seed uint64) (probes, error) {
	var p probes
	st := e.node.top
	runs, err := scan.Unwrap(st).Runs()
	if err != nil {
		return p, err
	}
	rng := rand.New(rand.NewSource(int64(mix(seed, 3000))))
	for i := 0; i < 200; i++ {
		id := runs[rng.Intn(len(runs))]
		t0 := time.Now()
		if _, err := scan.Unwrap(st).RunLog(id); err != nil {
			return p, err
		}
		p.loadUs = append(p.loadUs, float64(time.Since(t0))/1e3)
	}
	if !e.w.query {
		return p, nil // no other workload calls scan or pql
	}
	t0 := time.Now()
	p.scanShards, err = scan.ShardedLogs(st, func(*provenance.RunLog) error { p.scanRuns++; return nil })
	if err != nil {
		return p, err
	}
	p.scanMs = float64(time.Since(t0)) / 1e6
	for rep := 0; rep < 3; rep++ {
		for _, src := range e.queries {
			t0 := time.Now()
			q, err := pql.Parse(src)
			if err != nil {
				return p, err
			}
			p.parseUs = append(p.parseUs, float64(time.Since(t0))/1e3)
			t0 = time.Now()
			res, ex, err := pql.ExecuteExplain(st, q)
			if err != nil {
				return p, err
			}
			p.execMs = append(p.execMs, float64(time.Since(t0))/1e6)
			p.allocBytes += float64(ex.AllocBytes)
			p.returned += float64(len(res.Rows))
			for _, op := range ex.Ops {
				p.operatorRows += float64(op.Rows)
				if strings.HasPrefix(op.Label, "scan(") {
					p.examined += float64(op.Rows)
				}
			}
		}
	}
	return p, nil
}

// layerInput is everything layerMetrics reads.
type layerInput struct {
	cfg           runConfig
	e             *env
	ld            *load
	spans         []span // linked
	before, after snapshot
	checkpoints   int
	userBytes     int64
	logBytes      int64 // Σ provlog.jsonl
	ckptBytes     int64 // Σ checkpoint.json + closures.json
	catchupS      float64
	probes        probes
}

// opAgg is one traced op: its kind, what its client observed, and the
// self time of its spans per level, µs. A span's self time is its duration
// minus that of the span it forwarded the call to, one level down.
type opAgg struct {
	call  uint8
	total float64
	self  [numLevels]float64
}

// aggregate groups linked spans by op. byName keeps every span's whole
// duration under its level and call, for the seams reported as such.
func aggregate(spans []span) (ops map[uint64]*opAgg, byName map[[2]uint8][]float64, respBytes []float64) {
	ops, byName = map[uint64]*opAgg{}, map[[2]uint8][]float64{}
	for _, s := range spans {
		dur := float64(s.end-s.start) / 1e3
		byName[[2]uint8{s.level, s.call}] = append(byName[[2]uint8{s.level, s.call}], dur)
		if s.op == 0 || (s.level != levelClient && s.parent < 0) {
			continue
		}
		o := ops[s.op]
		if o == nil {
			o = &opAgg{}
			ops[s.op] = o
		}
		o.self[s.level] += dur
		if s.level == levelClient {
			o.call, o.total = s.call, dur
		} else {
			o.self[spans[s.parent].level] -= dur
		}
		if s.level == levelHandler {
			respBytes = append(respBytes, float64(s.bytes))
		}
	}
	return ops, byName, respBytes
}

func p(xs []float64, q float64) float64 { return percentile(sortedCopy(xs), q) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// layerMetrics fills the per-layer schema from the three outside views of
// the traced run: the seam spans, the snapshot deltas, and the probes.
func layerMetrics(ms *metricSet, in layerInput) {
	b, a := in.before, in.after
	secs := in.cfg.seconds
	recs := in.ld.recorders()
	rateClass, _ := in.cfg.w.classes()
	recording := func(w int) bool { return w%2 == 1 }
	reference := func(w int) bool { return w%2 == 0 }
	setP := func(name string, xs []float64, q float64) {
		if len(xs) > 0 {
			ms.set(name, p(xs, q), len(xs))
		}
	}

	spans := in.spans
	ops, byName, respBytes := aggregate(spans)
	// selfOf is one level's self time over the ops of the given calls.
	selfOf := func(level int, calls ...uint8) []float64 {
		var out []float64
		for _, o := range ops {
			for _, c := range calls {
				if o.call == c {
					out = append(out, o.self[level])
				}
			}
		}
		return out
	}

	setP("api.client_overhead_us_p50", selfOf(levelClient, callClosure, callExpand, callQuery), 0.5)
	setP("collab.handler_self_us_p50", selfOf(levelHandler, callClosure, callExpand, callQuery), 0.5)
	if len(respBytes) > 0 {
		ms.set("collab.response_bytes_per_op", mean(respBytes), len(respBytes))
	}
	reqs := delta(b, a, "prov_http_requests_total")
	ms.set("collab.requests_total", reqs, int(reqs))
	ms.set("collab.errors_total", reqs-delta(b, a, "prov_http_requests_total", `code="2`), int(reqs))

	ingests := float64(a.cache.Ingests - b.cache.Ingests)
	setP("standing.put_self_us_p50", selfOf(levelTap, callPut), 0.5)
	ms.set("standing.deltas_per_run", ratio(delta(b, a, "prov_standing_deltas_total"), ingests), int(ingests))
	sp := histDelta(b, a, "prov_standing_patch_seconds")
	ms.set("standing.patch_busy_s", float64(sp.Sum)/1e9, int(sp.Count))
	ms.set("standing.dropped_total", delta(b, a, "prov_standing_dropped_total"), int(ingests))

	hits, misses := float64(a.cache.ClosureHits-b.cache.ClosureHits), float64(a.cache.ClosureMisses-b.cache.ClosureMisses)
	ms.set("closurecache.closure_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	setP("closurecache.closure_self_us_p50", selfOf(levelCache, callClosure), 0.5)
	setP("closurecache.put_self_us_p50", selfOf(levelCache, callPut), 0.5)
	ms.set("closurecache.patched_per_run", ratio(float64(a.cache.Patched-b.cache.Patched), ingests), int(ingests))
	ms.set("closurecache.evictions_total", float64(a.cache.Evicted-b.cache.Evicted), int(hits+misses))
	ms.set("closurecache.batched_total", float64(a.cache.Batched-b.cache.Batched), int(ingests))
	cp := histDelta(b, a, "prov_cache_patch_seconds")
	ms.set("closurecache.patch_busy_s", float64(cp.Sum)/1e9, int(cp.Count))

	if in.cfg.w.shards > 1 {
		setP("shardedstore.closure_us_p50", byName[[2]uint8{levelStore, callClosure}], 0.5)
		setP("shardedstore.closure_us_p99", byName[[2]uint8{levelStore, callClosure}], 0.99)
		setP("shardedstore.put_us_p50", byName[[2]uint8{levelStore, callPut}], 0.5)
		rounds, cross := histDelta(b, a, "prov_router_closure_rounds"), histDelta(b, a, "prov_router_closure_crossings")
		ms.set("shardedstore.rounds_per_closure", rounds.Mean(), int(rounds.Count))
		ms.set("shardedstore.crossings_per_closure", cross.Mean(), int(cross.Count))
		fan := histDelta(b, a, "prov_router_scatter_shards")
		ms.set("shardedstore.scatter_shards_mean", fan.Mean(), int(fan.Count))
		ms.set("shardedstore.reopen_s", in.e.openS, 1)
	}

	us := func(name string, h obs.HistSnapshot, q float64) {
		ms.set(name, float64(h.Quantile(q))/1e3, int(h.Count))
	}
	ms.set("store.reopen_s", in.e.reopenS, 1)
	si := histDelta(b, a, "prov_store_ingest_seconds")
	us("store.ingest_us_p50", si, 0.5)
	us("store.ingest_us_p99", si, 0.99)
	us("store.closure_us_p50", histDelta(b, a, "prov_store_closure_seconds"), 0.5)
	us("store.expand_us_p50", histDelta(b, a, "prov_store_expand_seconds"), 0.5)
	setP("store.runlog_load_us_p50", in.probes.loadUs, 0.5)
	ms.set("store.checkpoints_total", float64(in.checkpoints), in.checkpoints)
	ms.set("store.checkpoint_bytes", float64(in.ckptBytes), 1)
	ms.set("store.log_bytes_per_user_byte", ratio(float64(in.logBytes), float64(in.userBytes)), 1)

	appends, batches := float64(a.wal.Appends-b.wal.Appends), float64(a.wal.Batches-b.wal.Batches)
	ms.set("wal.fsyncs_per_run", ratio(float64(a.wal.Syncs-b.wal.Syncs), appends), int(appends))
	ms.set("wal.batch_records_mean", ratio(appends, batches), int(batches))
	wc := histDelta(b, a, "prov_wal_commit_seconds")
	us("wal.commit_us_p50", wc, 0.5)
	us("wal.commit_us_p99", wc, 0.99)
	ms.set("wal.bytes_per_run", ratio(float64(a.wal.Bytes-b.wal.Bytes), appends), int(appends))

	if pr := in.probes; pr.scanRuns > 0 {
		nq := float64(len(pr.execMs))
		ms.set("scan.logs_ms", pr.scanMs, 1)
		ms.set("scan.logs_us_per_run", pr.scanMs*1e3/float64(pr.scanRuns), pr.scanRuns)
		ms.set("scan.shards_parallel", float64(pr.scanShards), 1)
		setP("pql.parse_us_p50", pr.parseUs, 0.5)
		setP("pql.exec_ms_p50", pr.execMs, 0.5)
		ms.set("pql.alloc_bytes_per_query", pr.allocBytes/nq, int(nq))
		ms.set("pql.rows_examined_per_row_returned", ratio(pr.examined, pr.returned), int(nq))
		ms.set("relalg.operator_rows_per_query", pr.operatorRows/nq, int(nq))
	}

	if in.e.w.follower {
		if lag := sortedCopy(in.ld.lag); len(lag) > 0 {
			ms.set("replica.lag_bytes_p50", percentile(lag, 0.5), len(lag))
			ms.set("replica.lag_bytes_max", lag[len(lag)-1], len(lag))
		}
		ms.set("replica.catchup_s", in.catchupS, 1)
		us("replica.apply_us_p50", histDelta(b, a, "prov_replica_apply_seconds"), 0.5)
		shipped := delta(b, a, "prov_replica_shipped_records_total")
		ms.set("replica.shipped_bytes_per_run", ratio(delta(b, a, "prov_replica_shipped_bytes_total"), shipped), int(shipped))
		streams := delta(b, a, "prov_http_requests_total", `route="/v1/replication/stream"`)
		ms.set("replica.stream_requests_per_s", streams/secs, int(streams))
		ms.set("replica.retries_total", delta(b, a, "prov_replica_retries_total"), int(streams))
	}

	n := 0
	for c := opClass(0); c < numClasses; c++ {
		n += countOps(recs, c, nil)
	}
	fn := float64(max(n, 1))
	ms.set("process.allocs_per_op", float64(a.mem.Mallocs-b.mem.Mallocs)/fn, n)
	ms.set("process.alloc_bytes_per_op", float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/fn, n)
	ms.set("process.gc_pause_ms_total", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, int(a.mem.NumGC-b.mem.NumGC))
	ms.set("process.cpu_s_per_kop", (a.cpu-b.cpu).Seconds()/fn*1e3, n)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		ms.set("process.rss_peak_mb", float64(ru.Maxrss)/1024, 1)
	}

	ms.set("loadgen.clients", float64(in.cfg.clients), 1)
	rateOps := countOps(recs, rateClass, nil)
	ms.set("loadgen.ops_per_s", float64(rateOps)/secs, rateOps)
	// The p99 of the class latency_tail_ms is taken on, over the whole
	// phase: too jumpy to bound, too telling to drop.
	_, latClass := in.cfg.w.classes()
	setP("loadgen.latency_p99_ms", pooled(recs, latClass), 0.99)
	setP("loadgen.read_p50_ms", pooled(recs, classRead), 0.5)
	setP("loadgen.late_ms_p99", in.ld.late, 0.99)

	// Odd windows record spans, even ones do not; both run the same stack.
	on, off := countOps(recs, rateClass, recording), countOps(recs, rateClass, reference)
	ms.set("trace.overhead_ratio", ratio(float64(on), float64(off)), on+off)
	ms.set("trace.spans_total", float64(len(spans)), len(spans))
	// What the medians of the layers' self times leave unexplained of the
	// median the client observed, per op kind.
	for call := uint8(0); call < numCalls; call++ {
		var observed []float64
		for _, o := range ops {
			if o.call == call {
				observed = append(observed, o.total)
			}
		}
		if len(observed) == 0 {
			continue
		}
		var explained float64
		for level := 0; level < numLevels; level++ {
			explained += p(selfOf(level, call), 0.5)
		}
		ms.set("trace.unattributed_share_"+callName[call], 1-ratio(explained, p(observed, 0.5)), len(observed))
	}
}
