package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/collab/api"
	"repro/internal/core"
	"repro/internal/provenance"
	"repro/internal/query/standing"
	"repro/internal/store"
)

// sizes is everything about a workload that scales: the full sizes are
// what BENCHMARK.json's numbers are measured at, the quick ones run the
// same code paths in well under a second for the package's own test.
type sizes struct {
	chains, chainLen        int // seeded chains × links per chain
	fanin, diamond, fmri    int // seeded runs of the other families
	closureSubs, tripleSubs int // standing subscriptions
	hot                     int // mixed: roots in the reader's hot set
	rate                    int // mixed: open-loop publisher rate, runs/s
	coldChains              int // mixed: chains the publisher starts itself, beside the seeded ones
}

// workload is one traffic mix over one provd topology.
type workload struct {
	name string
	why  string

	shards          int
	checkpointEvery int
	role            string
	follower        bool
	writes, reads   bool // which client kinds run
	query           bool // readers issue PQL instead of closures
	// tail is the percentile latency_tail_ms reports: the highest that
	// repeats. An ingest p99 on this stack is a checkpoint stall or not, by
	// which window it fell in (spread 0.3 over ten seeds); the p95 repeats,
	// and the p99 goes to loadgen.latency_p99_ms, unbounded. analytics has
	// a hundred queries per window: ten beyond a p90. On lineage one request
	// in seventy is a large closure, twenty times the median: the p99 stands
	// on that cliff and moves with the mix a window drew, the p99.5 on the
	// plateau behind it.
	tail float64
	// window is the length of one window of the timed phase: long enough
	// for ten samples beyond the tail percentile, short enough that a run
	// has tens of them for the quiet quartile to choose from.
	window time.Duration
	// ungated workloads run in a full run and are left out of
	// BENCHMARK.json: the driver neither runs them nor holds a change to them.
	ungated     bool
	full, quick sizes
}

// The four workloads. Their names are fixed: later issues cite them. The
// driver gates three: its time limit buys three workloads with runs long
// enough to repeat on a shared host, and ingest — two closed loops waiting
// on a shared disk's fsync — is the one whose runs repeated worst.
var workloads = []*workload{
	{
		name: "ingest", why: "write-only closed loop on one shard: wal, store fold, cache patch and standing deltas do all the work, query layers none",
		shards: 1, checkpointEvery: 8192, role: api.RoleStandalone, writes: true, tail: 0.95,
		window: time.Second, ungated: true,
		full:  sizes{chains: 64, chainLen: 8, fanin: 192, diamond: 224, fmri: 96, closureSubs: 4, tripleSubs: 4},
		quick: sizes{chains: 32, chainLen: 8, fanin: 4, diamond: 4, fmri: 2, closureSubs: 4, tripleSubs: 1},
	},
	{
		name: "lineage", why: "read-only point closures over 4 shards, working set about 9x the closure cache: router rounds and store fixpoints dominate, wal idle",
		shards: 4, role: api.RoleStandalone, reads: true, tail: 0.995,
		window: time.Second,
		full:   sizes{chains: 32, chainLen: 128, fanin: 512, diamond: 1024, fmri: 256},
		quick:  sizes{chains: 32, chainLen: 8, fanin: 16, diamond: 16, fmri: 8},
	},
	{
		name: "analytics", why: "read-only PQL on one shard: scan, pql/relalg and RunLog loads do the work; cache, router, wal and standing are bypassed",
		shards: 1, role: api.RoleStandalone, reads: true, query: true, tail: 0.90,
		window: 2500 * time.Millisecond,
		full:   sizes{diamond: 32, fmri: 8},
		quick:  sizes{diamond: 8, fmri: 2},
	},
	{
		name: "mixed", why: "fixed-rate ingest beside cache-hit reads on a 4-shard primary with a follower: interference, router ingest path and replication tax show only here",
		shards: 4, role: api.RolePrimary, follower: true, writes: true, reads: true, tail: 0.95,
		window: time.Second,
		full:   sizes{chains: 160, chainLen: 8, fanin: 384, diamond: 448, fmri: 192, closureSubs: 14, tripleSubs: 2, hot: 256, rate: 420, coldChains: 480},
		quick:  sizes{chains: 40, chainLen: 8, fanin: 4, diamond: 4, fmri: 2, closureSubs: 4, tripleSubs: 1, hot: 16, rate: 200, coldChains: 40},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runRef names one generated run.
type runRef struct {
	f             Family
	stream, index int
}

// seedStream is the stream the seeded non-chain runs come from; client
// streams count up from 0, so the two never collide.
const seedStream = 1 << 20

// seedPlan lists the seeded runs in ingest order: chains first (round-robin
// across chains, so every chain's prefix exists before a Fanin run
// references it), then the other families interleaved.
func seedPlan(sz sizes) []runRef {
	var plan []runRef
	for i := 0; i < sz.chainLen; i++ {
		for c := 0; c < sz.chains; c++ {
			plan = append(plan, runRef{Chain, c, i})
		}
	}
	for i := 0; i < max(sz.fanin, sz.diamond, sz.fmri); i++ {
		if i < sz.fanin {
			plan = append(plan, runRef{Fanin, seedStream, i})
		}
		if i < sz.diamond {
			plan = append(plan, runRef{Diamond, seedStream, i})
		}
		if i < sz.fmri {
			plan = append(plan, runRef{FMRI, seedStream, i})
		}
	}
	return plan
}

// env is one set-up workload: the node under test, its follower, and what
// the load generator and the oracle need to know about the seeded store.
type env struct {
	w    *workload
	sz   sizes
	gen  Gen
	dir  string
	node *node
	fol  *follower

	plan     []runRef
	roots    [numFamilies][]string // generated artifacts of the seeded runs, by family
	hotRoots []hotRoot             // mixed: the reader's hot set
	queries  []string              // analytics: the PQL battery
	setupS   float64
	reopenS  float64
	openS    float64 // store-stack open alone, inside reopenS
}

// hotRoot is one (root, direction) the mixed reader asks for.
type hotRoot struct {
	id  string
	dir store.Direction
}

// setUp seeds a fresh directory, opens the node on it, and warms it.
// setup_s is the whole of it; store.reopen_s is the part a restarted provd pays
// before its first answer: opening the seeded directory and serving one
// lineage request.
func setUp(w *workload, sz sizes, seed uint64, dir string, t *tracer) (e *env, err error) {
	start := time.Now()
	e = &env{w: w, sz: sz, gen: NewGen(seed), dir: dir, plan: seedPlan(sz)}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	primaryDir := filepath.Join(dir, "primary")

	// Seed through the program's own store constructor, without fsync:
	// bulk-loading 4k runs one commit at a time would measure the disk.
	seedSt, closeSeed, err := core.OpenPersistentStore(core.Options{StoreDir: primaryDir, Shards: w.shards})
	if err != nil {
		return nil, err
	}
	for _, r := range e.plan {
		l := e.gen.Run(r.f, r.stream, r.index)
		if err := seedSt.PutRunLog(l); err != nil {
			_ = closeSeed()
			return nil, fmt.Errorf("seed %s: %w", l.Run.ID, err)
		}
		e.roots[r.f] = append(e.roots[r.f], generated(l)...)
	}
	if err := closeSeed(); err != nil {
		return nil, err
	}
	if w.query {
		e.queries = pqlBattery(e.roots[Diamond])
	}

	reopen := time.Now()
	e.node, err = openNode(nodeConfig{
		dir: primaryDir, shards: w.shards, cache: true, durability: store.DurabilityGroup,
		checkpointEvery: w.checkpointEvery, role: w.role, tracer: t,
	})
	if err != nil {
		return nil, err
	}
	e.openS = time.Since(reopen).Seconds()
	probe := e.roots[Diamond]
	if len(probe) == 0 {
		probe = e.roots[Chain]
	}
	if _, err := api.NewClient(e.node.url, nil).Lineage(probe[len(probe)-1]); err != nil {
		return nil, fmt.Errorf("first lineage answer: %w", err)
	}
	e.reopenS = time.Since(reopen).Seconds()

	if err := e.subscribe(); err != nil {
		return nil, err
	}
	if err := e.warm(seed); err != nil {
		return nil, err
	}
	if w.follower {
		if e.fol, err = openFollower(filepath.Join(dir, "follower"), e.node.url); err != nil {
			return nil, fmt.Errorf("follower bootstrap: %w", err)
		}
	}
	e.setupS = time.Since(start).Seconds()
	return e, nil
}

// subscribe registers the workload's standing queries: closure-down
// subscriptions on chain heads (every Chain ingest of those chains is a
// delta) and triple patterns. There are no conjunctive subscriptions:
// maintaining one costs time proportional to the store on every ingest
// (bench/README.md, known gaps), which would leave the write workloads
// measuring nothing else.
func (e *env) subscribe() error {
	var specs []standing.Spec
	for i := 0; i < e.sz.closureSubs; i++ {
		specs = append(specs, standing.Spec{Kind: standing.KindClosure, Root: e.gen.ChainHead(i), Dir: store.Down})
	}
	patterns := []store.Triple{
		{P: store.PredStatus, O: string(provenance.StatusFailed)},
		{P: store.PredArtType, O: "atlasGraphic"},
		{P: store.PredModuleType, O: "Softmean"},
		{P: store.PredAgent, O: "agent-3"},
	}
	for i := 0; i < e.sz.tripleSubs; i++ {
		specs = append(specs, standing.Spec{Kind: standing.KindTriple, Pattern: patterns[i%len(patterns)]})
	}
	for _, s := range specs {
		if _, err := e.node.mgr.Subscribe(s); err != nil {
			return fmt.Errorf("subscribe %s: %w", s.Kind, err)
		}
	}
	return nil
}

// warm fills the closure cache with what the workload expects to find
// there: every chain head's dependents on ingest (so each Chain ingest
// patches a warm entry), the hot set on mixed. lineage and analytics
// start cold and fill during warm-up.
func (e *env) warm(seed uint64) error {
	var warm []hotRoot
	switch e.w.name {
	case "ingest":
		for c := 0; c < e.sz.chains; c++ {
			warm = append(warm, hotRoot{e.gen.ChainHead(c), store.Down})
		}
	case "mixed":
		rng := rand.New(rand.NewSource(int64(mix(seed, 77))))
		// The hot heads are of chains no Fanin run consumes from. Every
		// Fanin ingest hangs off one of the first faninChains chains, whose
		// heads' dependents would grow by forty entities a second and halve
		// the reader's rate in the course of a run; under these heads only
		// the chain itself grows, a link at a time.
		for c := faninChains; c < e.sz.chains && len(e.hotRoots) < e.sz.hot/2; c++ {
			e.hotRoots = append(e.hotRoots, hotRoot{e.gen.ChainHead(c), store.Down})
		}
		var others []string
		for _, f := range []Family{Fanin, Diamond, FMRI} {
			others = append(others, e.roots[f]...)
		}
		for len(e.hotRoots) < e.sz.hot {
			e.hotRoots = append(e.hotRoots, hotRoot{others[rng.Intn(len(others))], store.Up})
		}
		warm = e.hotRoots
	}
	for _, r := range warm {
		if _, err := e.node.top.Closure(r.id, r.dir); err != nil {
			return fmt.Errorf("warm %s: %w", r.id, err)
		}
	}
	return nil
}

// Close tears the node and its follower down; the directory stays.
func (e *env) Close() error {
	var err error
	if e.fol != nil {
		err = e.fol.close()
		e.fol = nil
	}
	if e.node != nil {
		if cerr := e.node.Close(); err == nil {
			err = cerr
		}
		e.node = nil
	}
	return err
}
