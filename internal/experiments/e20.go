package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/provenance"
	"repro/internal/query/datalog"
	"repro/internal/query/scan"
	"repro/internal/query/standing"
	"repro/internal/store"
)

// E20 measures the standing-query subsystem against the alternative a
// client actually has — re-running the query after every ingest — once
// more than a handful of subscriptions watch the store. It reports both
// arms' absolute times and their ratio; nothing gates on the ratio (that
// maintenance narrows to the affected subscriptions is a deterministic
// test in internal/query/standing).
//
// Both arms ingest the same live stream of runs into the same seeded
// lineage DAG (8 chains, 12 links deep) with 64 registered standing
// queries of all three kinds: 24 transitive closures rooted at chain
// heads and interior artifacts, 24 triple patterns from full wildcards
// down to per-execution shapes, and 16 conjunctive Datalog queries.
//
//   - delta arm: the store is wrapped in a standing.Tap feeding a
//     standing.Manager, exactly provd's primary wiring. Each accepted run
//     pays pattern-indexed incremental maintenance for the affected
//     subscriptions only; after every ingest each subscription's pending
//     events are drained through EventsSince, so delivery cost is in the
//     measurement.
//   - re-query arm: a bare store ingests the same runs, and after every
//     ingest all 64 queries are evaluated from scratch — closure BFS,
//     full triple scan, fresh Datalog program — which is what a watcher
//     without the subsystem must do to stay current.
//
// The arms are verified equivalent: after the live phase every
// subscription's maintained result must be set-equal to the fresh
// re-query on the final store. The acceptance metric is the median of
// the paired per-round speedups (the arms alternate over the identical
// live stream).
func E20() Result {
	const (
		chains  = 8
		seedLen = 12
		liveLen = 6 // live links appended per chain: 48 timed ingests
	)

	specs := e20Specs(chains)

	// --- delta arm: tapped store, incremental maintenance + drain. ---
	deltaStore := store.NewMemStore()
	defer deltaStore.Close()
	mgr := standing.NewManager(deltaStore, standing.Options{})
	tap := standing.NewTap(deltaStore, mgr)
	if err := e20Seed(tap, chains, seedLen); err != nil {
		return errResult("E20", err)
	}
	ids := make([]string, len(specs))
	cursors := make([]uint64, len(specs))
	for i, spec := range specs {
		snap, err := mgr.Subscribe(spec)
		if err != nil {
			return errResult("E20", fmt.Errorf("subscribe %d: %w", i, err))
		}
		ids[i] = snap.ID
		cursors[i] = snap.Seq
	}
	// --- re-query arm: bare store, every query from scratch per ingest. ---
	reqStore := store.NewMemStore()
	defer reqStore.Close()
	if err := e20Seed(reqStore, chains, seedLen); err != nil {
		return errResult("E20", err)
	}

	// The arms alternate round by round over the identical live stream —
	// round i extends every chain by one link in both stores — so each
	// round yields one paired ratio measured milliseconds apart on the
	// same-sized stores. The delta arm is small (tens of milliseconds
	// total), so a single sequential measurement would be at the mercy of
	// whatever GC pressure the rest of the suite left behind; the median
	// of paired per-round ratios is not.
	var delivered int
	var deltaDur, requeryDur time.Duration
	var ratios []float64
	for i := seedLen; i < seedLen+liveLen; i++ {
		deltaStart := time.Now()
		for c := 0; c < chains; c++ {
			if err := tap.PutRunLog(e20ChainRun(c, i)); err != nil {
				return errResult("E20", err)
			}
			for s := range ids {
				evs, ok := mgr.EventsSince(ids[s], cursors[s])
				if !ok {
					return errResult("E20", fmt.Errorf("subscription %s vanished", ids[s]))
				}
				for _, ev := range evs {
					delivered += len(ev.Items)
					cursors[s] = ev.Seq
				}
			}
		}
		deltaRound := time.Since(deltaStart)
		deltaDur += deltaRound

		requeryStart := time.Now()
		for c := 0; c < chains; c++ {
			if err := reqStore.PutRunLog(e20ChainRun(c, i)); err != nil {
				return errResult("E20", err)
			}
			for _, spec := range specs {
				if _, err := e20Requery(reqStore, spec); err != nil {
					return errResult("E20", err)
				}
			}
		}
		requeryRound := time.Since(requeryStart)
		requeryDur += requeryRound
		ratios = append(ratios, float64(requeryRound)/float64(deltaRound))
	}

	// Equivalence: the maintained results must match a fresh evaluation of
	// the final store, subscription by subscription.
	for i, spec := range specs {
		snap, ok := mgr.Snapshot(ids[i])
		if !ok {
			return errResult("E20", fmt.Errorf("subscription %s vanished", ids[i]))
		}
		want, err := e20Requery(deltaStore, spec)
		if err != nil {
			return errResult("E20", err)
		}
		got := append([]string(nil), snap.Items...)
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			return errResult("E20", fmt.Errorf("subscription %d (%s) diverged: %d maintained vs %d re-queried items",
				i, spec.Kind, len(got), len(want)))
		}
	}

	ingests := chains * liveLen
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	speedup := sorted[len(sorted)/2]
	perIngestDelta := deltaDur / time.Duration(ingests)
	perIngestReq := requeryDur / time.Duration(ingests)

	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %14s\n", "arm (48 live ingests, 64 subs)", "total", "per ingest")
	fmt.Fprintf(&b, "%-34s %12s %14s\n", "incremental maintenance + drain", deltaDur.Round(10*time.Microsecond), perIngestDelta.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-34s %12s %14s\n", "full re-query of every sub", requeryDur.Round(10*time.Microsecond), perIngestReq.Round(time.Microsecond))
	var rs []string
	for _, r := range ratios {
		rs = append(rs, fmt.Sprintf("%.1f", r))
	}
	fmt.Fprintf(&b, "per-round requery/delta ratios: %s\n", strings.Join(rs, " "))
	fmt.Fprintf(&b, "speedup: %.1fx median\n", speedup)
	fmt.Fprintf(&b, "subscriptions: %d closure, %d triple, %d conjunctive; %d delta items delivered\n",
		e20ClosureSubs(chains), e20TripleSubs(chains), e20ConjSubs(), delivered)
	fmt.Fprintf(&b, "all %d maintained results verified set-equal to a fresh re-query of the final store\n", len(specs))

	return Result{
		ID:    "E20",
		Title: "standing queries: incremental maintenance vs per-ingest re-query, 64 subscriptions",
		Table: b.String(),
		Metrics: []Metric{
			{Name: "standing_delta_vs_requery_speedup_x", Value: speedup, Unit: "x"},
			{Name: "standing_delta_us_per_ingest", Value: float64(perIngestDelta.Nanoseconds()) / 1e3, Unit: "us"},
			{Name: "standing_requery_us_per_ingest", Value: float64(perIngestReq.Nanoseconds()) / 1e3, Unit: "us"},
			{Name: "standing_subscriptions", Value: float64(len(specs)), Unit: "subs"},
			{Name: "standing_delta_items_delivered", Value: float64(delivered), Unit: "items"},
		},
	}
}

func e20ClosureSubs(chains int) int { return 3 * chains }
func e20TripleSubs(chains int) int  { return 3 * chains }
func e20ConjSubs() int              { return 16 }

// e20Specs builds the 64-subscription mix registered in both arms.
func e20Specs(chains int) []standing.Spec {
	var specs []standing.Spec
	art := func(c, i int) string { return fmt.Sprintf("e20-c%d-art-%06d", c, i) }
	exec := func(c, i int) string { return fmt.Sprintf("e20-c%d-exec-%06d", c, i) }
	for c := 0; c < chains; c++ {
		// Closures: everything downstream of the chain head, downstream of
		// an interior artifact, and the full ancestry of another.
		specs = append(specs,
			standing.Spec{Kind: standing.KindClosure, Root: art(c, 0), Dir: store.Down},
			standing.Spec{Kind: standing.KindClosure, Root: art(c, 3), Dir: store.Down},
			standing.Spec{Kind: standing.KindClosure, Root: art(c, 6), Dir: store.Up},
		)
		// Triple patterns: what one execution generated, who used one
		// artifact, and everything about one execution.
		specs = append(specs,
			standing.Spec{Kind: standing.KindTriple, Pattern: store.Triple{S: exec(c, 2), P: store.PredGenerated}},
			standing.Spec{Kind: standing.KindTriple, Pattern: store.Triple{P: store.PredUsed, O: art(c, 5)}},
			standing.Spec{Kind: standing.KindTriple, Pattern: store.Triple{S: exec(c, 8)}},
		)
	}
	conj := []standing.Spec{
		{Kind: standing.KindConjunctive, Query: "used(E, A), generated(E, B)", Output: []string{"A", "B"}},
		{Kind: standing.KindConjunctive, Query: "generated(E, A), partOfRun(E, R)", Output: []string{"A", "R"}},
		{Kind: standing.KindConjunctive, Query: "generated(E, A), moduleType(E, 'Synth')", Output: []string{"E", "A"}},
		{Kind: standing.KindConjunctive, Query: "used(E, A), module(E, 'step')", Output: []string{"E", "A"}},
	}
	for i := 0; i < e20ConjSubs(); i++ {
		specs = append(specs, conj[i%len(conj)])
	}
	return specs
}

// e20ChainRun is link i of chain c: consume artifact i, generate i+1.
func e20ChainRun(c, i int) *provenance.RunLog {
	runID := fmt.Sprintf("e20-c%d-run-%06d", c, i)
	exec := fmt.Sprintf("e20-c%d-exec-%06d", c, i)
	in := fmt.Sprintf("e20-c%d-art-%06d", c, i)
	out := fmt.Sprintf("e20-c%d-art-%06d", c, i+1)
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: runID, WorkflowID: "e20", Status: provenance.StatusOK}
	l.Executions = []*provenance.Execution{{ID: exec, RunID: runID, ModuleID: "step", ModuleType: "Synth", Status: provenance.StatusOK}}
	l.Artifacts = []*provenance.Artifact{{ID: in, RunID: runID, Type: "blob"}, {ID: out, RunID: runID, Type: "blob"}}
	l.Events = []provenance.Event{
		{Seq: 1, RunID: runID, Kind: provenance.EventArtifactUsed, ExecutionID: exec, ArtifactID: in},
		{Seq: 2, RunID: runID, Kind: provenance.EventArtifactGen, ExecutionID: exec, ArtifactID: out},
	}
	return l
}

func e20Seed(st store.Store, chains, seedLen int) error {
	for i := 0; i < seedLen; i++ {
		for c := 0; c < chains; c++ {
			if err := st.PutRunLog(e20ChainRun(c, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// e20Requery evaluates one spec from scratch against the store — the cost
// a client pays per ingest without the standing-query subsystem. Results
// come back sorted and deduplicated for the equivalence check.
func e20Requery(st store.Store, spec standing.Spec) ([]string, error) {
	switch spec.Kind {
	case standing.KindClosure:
		order, err := st.Closure(spec.Root, spec.Dir)
		if err != nil {
			if errors.Is(err, store.ErrNotFound) {
				return nil, nil
			}
			return nil, err
		}
		sort.Strings(order)
		return order, nil
	case standing.KindTriple:
		set := map[string]struct{}{}
		err := scan.Logs(st, func(l *provenance.RunLog) error {
			for _, tr := range store.TriplesOf(l) {
				if (spec.Pattern.S == "" || spec.Pattern.S == tr.S) &&
					(spec.Pattern.P == "" || spec.Pattern.P == tr.P) &&
					(spec.Pattern.O == "" || spec.Pattern.O == tr.O) {
					set[standing.TripleItem(tr)] = struct{}{}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		items := make([]string, 0, len(set))
		for it := range set {
			items = append(items, it)
		}
		sort.Strings(items)
		return items, nil
	case standing.KindConjunctive:
		p := datalog.NewProgram()
		if err := datalog.LoadStore(p, st); err != nil {
			return nil, err
		}
		head := "q(" + strings.Join(spec.Output, ", ") + ")"
		r, err := datalog.ParseRule(head + " :- " + spec.Query)
		if err != nil {
			return nil, err
		}
		if err := p.AddRule(r); err != nil {
			return nil, err
		}
		goal, err := datalog.ParseAtom(head)
		if err != nil {
			return nil, err
		}
		res, err := p.Query(goal)
		if err != nil {
			return nil, err
		}
		set := map[string]struct{}{}
		for _, row := range res.Rows {
			set[strings.Join(row, " ")] = struct{}{}
		}
		items := make([]string, 0, len(set))
		for it := range set {
			items = append(items, it)
		}
		sort.Strings(items)
		return items, nil
	}
	return nil, fmt.Errorf("e20: unknown spec kind %q", spec.Kind)
}
