package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/query/standing"
	"repro/internal/store"
	"repro/internal/store/closurecache"
)

// runConfig is one invocation: one workload, traced or not.
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	clients int
	workDir string // store directories live and die here
	results string // trace-<workload>.jsonl goes here
	log     io.Writer
}

// result is what one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Mismatch  string            `json:"mismatch,omitempty"`
}

// setUps is how many times an untraced run sets its workload up; setup_s
// is the median, and the last set-up is the one measured. A
// set-up that takes milliseconds (analytics) is timer noise three times
// over, so set-ups go on until a second is spent on them, up to maxSetUps.
const (
	setUps    = 3
	maxSetUps = 15
)

// load is a workload's clients. They outlive phases: a publisher's run
// sequence continues from warm-up into the timed phase.
type load struct {
	e       *env
	pubs    []*publisher
	readers []*reader
	late    []float64 // open-loop dispatcher lateness, ms
	lag     []float64 // follower lag in bytes, sampled at each open-loop publish
}

func newLoad(e *env, clients int, seed uint64) *load {
	ld := &load{e: e}
	switch {
	case e.w.writes && e.w.reads: // mixed: one open-loop publisher, the rest read
		ld.pubs = append(ld.pubs, newPublisher(e, 0, 1, seed))
		for i := 0; i < max(1, clients-1); i++ {
			ld.readers = append(ld.readers, newReader(e, i, seed))
		}
	case e.w.writes:
		for i := 0; i < clients; i++ {
			ld.pubs = append(ld.pubs, newPublisher(e, i, clients, seed))
		}
	default:
		for i := 0; i < clients; i++ {
			ld.readers = append(ld.readers, newReader(e, i, seed))
		}
	}
	return ld
}

// run drives every client through one phase and returns when all have
// stopped. In a traced phase span recording is on in the odd windows only.
func (ld *load) run(ph *phase) {
	var wg sync.WaitGroup
	start := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	for _, p := range ld.pubs {
		p.rec.reset(ph.windows)
		if ld.e.w.reads {
			var lag func()
			if ld.e.fol != nil && ph.windows > 0 {
				lag = func() {
					_, behind := ld.e.fol.f.Lag()
					ld.lag = append(ld.lag, float64(behind))
				}
			}
			start(func() { p.openLoop(ph, ld.e.sz.rate, &ld.late, lag) })
		} else {
			start(func() { p.closedLoop(ph) })
		}
	}
	for _, r := range ld.readers {
		r.rec.reset(ph.windows)
		start(func() { r.loop(ph) })
	}
	if ph.tracer != nil && ph.windows > 0 {
		start(func() {
			for w := 1; w < ph.windows; w++ {
				time.Sleep(time.Until(ph.start.Add(time.Duration(w) * ph.window)))
				ph.tracer.record(w%2 == 1)
			}
			time.Sleep(time.Until(ph.end))
			ph.tracer.record(false)
		})
	}
	wg.Wait()
}

func (ld *load) recorders() []*recorder {
	var out []*recorder
	for _, p := range ld.pubs {
		out = append(out, &p.rec)
	}
	for _, r := range ld.readers {
		out = append(out, &r.rec)
	}
	return out
}

// counts sums attempted and failed ops over every client and phase.
func (ld *load) counts() (attempted, failed int64, first error) {
	for _, p := range ld.pubs {
		attempted += p.attempted
		failed += p.failed
	}
	for _, r := range ld.readers {
		attempted += r.attempted
		failed += r.failed
		if first == nil {
			first = r.firstErr
		}
	}
	return
}

// classes says which op class a workload's throughput and latency metrics
// are taken on; see the table above endToEnd.
func (w *workload) classes() (rate, latency opClass) {
	switch {
	case w.writes && w.reads:
		return classRead, classIngest
	case w.writes:
		return classIngest, classIngest
	case w.query:
		return classQuery, classQuery
	}
	return classRead, classRead
}

// runOnce sets a workload up, loads it for cfg.seconds, checks its answers
// and reports the end-to-end metrics (untraced) or the per-layer ones.
func runOnce(cfg runConfig) (res *result, err error) {
	began := time.Now()
	sz := cfg.w.full
	warmUp := min(3, cfg.seconds/4)
	if cfg.quick {
		sz = cfg.w.quick
	}
	// The traced run takes no percentile per window; it switches recording
	// window by window, and forty short windows spread a checkpoint or the
	// drift of a growing store over both sides of trace.overhead_ratio alike.
	timed := time.Duration(cfg.seconds * float64(time.Second))
	windows, n, atMost := max(1, int(timed/cfg.w.window)), setUps, maxSetUps
	var tr *tracer
	if cfg.trace {
		tr, windows = newTracer(), 40
	}
	if cfg.trace || cfg.quick {
		n, atMost = 1, 1
	}
	base := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d", cfg.w.name, os.Getpid()))
	defer os.RemoveAll(base)

	var e *env
	var setupS []float64
	var spent float64
	for i := 0; i < n || (spent < 1 && i < atMost); i++ {
		if e != nil {
			if err := e.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		if e, err = setUp(cfg.w, sz, cfg.seed, filepath.Join(base, fmt.Sprintf("set-%d", i)), tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, e.setupS)
		spent += e.setupS
	}
	defer func() {
		if cerr := e.Close(); err == nil {
			err = cerr
		}
	}()
	fmt.Fprintf(cfg.log, "# %s seed=%d trace=%v clients=%d seconds=%g fs=%s: %d seeded runs, set-up %.2fs\n",
		cfg.w.name, cfg.seed, cfg.trace, cfg.clients, cfg.seconds, fsType(base), len(e.plan), e.setupS)

	ld := newLoad(e, cfg.clients, cfg.seed)
	ld.run(newPhase(time.Duration(warmUp*float64(time.Second)), 0, nil))
	runtime.GC()

	// The traced run's outside views bracket the timed phase; the untraced
	// run carries none of them.
	in := layerInput{cfg: cfg, e: e, ld: ld}
	var checkpoints func() int
	if cfg.trace {
		checkpoints = watchCheckpoints(e.node.files)
		in.before = takeSnapshot(e.node)
	}
	ph := newPhase(timed, windows, tr)
	ld.run(ph)
	loaded := time.Now()
	if cfg.trace {
		in.after, in.checkpoints = takeSnapshot(e.node), checkpoints()
	}
	for _, r := range ld.readers {
		r.closeIdle()
	}

	// Space and memory are read at rest. One explicit checkpoint outlasts
	// any automatic one still in flight (which holds a copy of the index)
	// and leaves the directory as a clean shutdown would, whatever point of
	// its checkpoint cycle the load stopped at.
	if err := e.node.top.(store.Checkpointer).Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	stats, err := e.node.top.Stats()
	if err != nil {
		return nil, err
	}
	primaryDir := filepath.Join(e.dir, "primary")
	diskBytes := dirSize(primaryDir, "")
	if cfg.trace {
		if in.probes, err = runProbes(e, cfg.seed); err != nil {
			return nil, err
		}
		in.logBytes = dirSize(primaryDir, store.LogFileName)
		in.ckptBytes = dirSize(primaryDir, filepath.Base(store.CheckpointPath(""))) +
			dirSize(primaryDir, filepath.Base(closurecache.SnapshotPath("")))
	}

	// Everything from here on is off the clock: the oracle, the follower's
	// catch-up, the reopen that proves acknowledged runs are durable.
	v, orc, catchupS, err := verify(cfg, e, ld)
	if err != nil {
		return nil, err
	}
	attempted, failed, firstErr := ld.counts()
	res = &result{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
		Attempted: attempted, Failed: failed + int64(v.wrong),
		Mismatch: v.first,
	}
	if firstErr != nil && res.Mismatch == "" {
		res.Mismatch = firstErr.Error()
	}
	res.Correct = res.Failed == 0 && attempted > 0
	fmt.Fprintf(cfg.log, "# %s: %d ops attempted, %d failed, %d answers checked against the oracle, %d wrong\n",
		cfg.w.name, attempted, failed, v.checked, v.wrong)
	fmt.Fprintf(cfg.log, "# %s: %.1fs of set-ups, %.1fs warm-up and load, %.1fs of checks\n",
		cfg.w.name, spent, loaded.Sub(began).Seconds()-spent, time.Since(loaded).Seconds())

	recs := ld.recorders()
	rateClass, latClass := cfg.w.classes()
	if !cfg.trace {
		ms := newMetricSet(endToEnd)
		ms.set("setup_s", median(setupS), len(setupS))
		rate, rates := windowRate(recs, rateClass, ph.window)
		ms.set("ops_per_s", rate, countOps(recs, rateClass, nil))
		p50 := windowPercentile(recs, latClass, 0.50)
		tail := windowPercentile(recs, latClass, cfg.w.tail)
		ms.set("latency_p50_ms", p50.value, p50.samples)
		ms.set("latency_tail_ms", tail.value, tail.samples)
		// The windows in time order: a slow spell of the host, or a drift of
		// the workload, is plain to see here and nowhere else.
		fmt.Fprintf(cfg.log, "# %s per %v window: ops/s %.0f\n# %s per window: p50 ms %.3g\n# %s per window: p%g ms %.3g\n",
			cfg.w.name, ph.window, rates, cfg.w.name, p50.per, cfg.w.name, cfg.w.tail*100, tail.per)
		if tail.beyond < 10 && !cfg.quick {
			fmt.Fprintf(cfg.log, "# warning: latency_tail_ms (p%g) has only %d samples beyond it in its thinnest window\n", cfg.w.tail*100, tail.beyond)
		}
		ms.set("disk_bytes_per_user_byte", float64(diskBytes)/float64(orc.userBytes), len(orc.runs))
		entities := stats.Executions + stats.Artifacts
		ms.set("heap_bytes_per_entity", float64(mem.HeapAlloc)/float64(entities), entities)
		res.Metrics = ms.finish()
		return res, nil
	}

	in.spans, in.userBytes, in.catchupS = tr.link(), orc.userBytes, catchupS
	ms := newMetricSet(perLayer)
	layerMetrics(ms, in)
	res.Metrics = ms.finish()
	if err := os.MkdirAll(cfg.results, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSONL(filepath.Join(cfg.results, "trace-"+cfg.w.name+".jsonl"), in.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// verify builds the oracle and checks the run against it: recorded reads,
// every PQL result, the cache-patched and standing closures, the follower
// against the primary, and — after closing and reopening the directory —
// every acknowledged run. catchupS is how long the follower's final
// catch-up took.
func verify(cfg runConfig, e *env, ld *load) (v *verdict, orc *oracle, catchupS float64, err error) {
	v, orc = &verdict{}, newOracle()
	if err := orc.add(e.gen, e.plan); err != nil {
		return nil, nil, 0, err
	}
	var samples []readSample
	seen := map[int]map[string]int{}
	for _, r := range ld.readers {
		samples = append(samples, r.samples...)
		for k, ds := range r.results {
			if seen[k] == nil {
				seen[k] = map[string]int{}
			}
			for d, n := range ds {
				seen[k][d] += n
			}
		}
	}
	bs := make([]bounds, len(samples))
	for i, s := range samples {
		lower, err := orc.answer(s)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("oracle %v: %w", s.ids, err)
		}
		bs[i] = bounds{lower: lower, upper: lower}
	}
	for _, p := range ld.pubs {
		if err := orc.add(e.gen, p.acked); err != nil {
			return nil, nil, 0, err
		}
	}
	if len(ld.pubs) > 0 {
		for i, s := range samples {
			upper, err := orc.answer(s)
			if err != nil {
				return nil, nil, 0, err
			}
			bs[i].upper = upper
		}
	}
	checkReads(v, samples, bs)
	if e.w.query {
		if err := orc.checkQueries(v, e.queries, seen); err != nil {
			return nil, nil, 0, err
		}
	}

	// Closures the ingest stream patched in place: the warm cache entries
	// and the standing closure subscriptions must equal a fresh per-edge
	// BFS over everything acknowledged.
	if e.w.writes {
		var roots []hotRoot
		for c := 0; c < e.sz.chains; c++ {
			roots = append(roots, hotRoot{e.gen.ChainHead(c), store.Down})
		}
		roots = append(roots, e.hotRoots...)
		for _, r := range roots {
			got, err := e.node.top.Closure(r.id, r.dir)
			if err != nil {
				return nil, nil, 0, err
			}
			orc.checkClosure(v, "primary", got, r.id, r.dir)
		}
		for _, info := range e.node.mgr.List() {
			if snap, ok := e.node.mgr.Snapshot(info.ID); ok && info.Spec.Kind == standing.KindClosure {
				orc.checkClosure(v, "standing", snap.Items, info.Spec.Root, info.Spec.Dir)
			}
		}
		if e.fol != nil {
			t0 := time.Now()
			if err := e.fol.f.CatchUp(); err != nil {
				return nil, nil, 0, fmt.Errorf("follower catch-up: %w", err)
			}
			catchupS = time.Since(t0).Seconds()
			for _, r := range roots {
				got, err := e.fol.st.Closure(r.id, r.dir)
				if err != nil {
					return nil, nil, 0, err
				}
				orc.checkClosure(v, "follower", got, r.id, r.dir)
			}
		}
	}

	// Durability: close, reopen the logs, list the runs.
	if err := e.Close(); err != nil {
		return nil, nil, 0, err
	}
	if e.w.writes {
		runs, err := storedRuns(filepath.Join(e.dir, "primary"), e.w.shards)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("reopen: %w", err)
		}
		orc.checkRuns(v, runs)
	}
	if v.wrong > 0 {
		fmt.Fprintf(cfg.log, "# ORACLE MISMATCH: %s\n", v.first)
	}
	return v, orc, catchupS, nil
}

// storedRuns lists the runs a restarted provd would replay from dir. Each
// shard's log is opened on its own, under the directory name
// shardedstore.OpenWith gives it: opening the router rebuilds its index at
// 0.5 ms per stored run (bench/README.md, known gaps), which set-up has
// timed already and a run that ingested ten thousand has no time for.
func storedRuns(dir string, shards int) ([]string, error) {
	dirs := []string{dir}
	if shards > 1 {
		dirs = dirs[:0]
		for i := 0; i < shards; i++ {
			dirs = append(dirs, filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		}
	}
	var runs []string
	for _, d := range dirs {
		fs, err := store.OpenFileStoreWith(d, store.FileOptions{})
		if err != nil {
			return nil, err
		}
		rs, err := fs.Runs()
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

// watchCheckpoints samples every shard's LastCheckpoint while the load
// runs and returns a function that stops it and reports how many
// checkpoints completed.
func watchCheckpoints(files []*store.FileStore) func() int {
	stop, done := make(chan struct{}), make(chan int)
	last := make([]int64, len(files))
	for i, fs := range files {
		last[i], _ = fs.LastCheckpoint()
	}
	go func() {
		n := 0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- n
				return
			case <-tick.C:
				for i, fs := range files {
					if off, _ := fs.LastCheckpoint(); off != last[i] {
						last[i] = off
						n++
					}
				}
			}
		}
	}()
	return func() int { close(stop); return <-done }
}

// dirSize sums the sizes of the regular files under dir whose base name is
// name ("" for all).
func dirSize(dir, name string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() && (name == "" || fi.Name() == name) {
			n += fi.Size()
		}
		return nil
	})
	return n
}
