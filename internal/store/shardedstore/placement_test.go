package shardedstore

// Tests of affinity placement: a run goes to the shard holding the
// generator edges of most of its inputs, sources and ties to the
// least-loaded shard, and the balance guard bounds skew — all decided from
// ingest order alone. Also the helpers other tests use to put runs on the
// shards they need and to read back where runs live.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
)

// putOn commits l to shard through the reservation and the directory fold
// PutRunLog takes, bypassing placement only.
func putOn(r *Router, l *provenance.RunLog, shard int) error {
	r.mu.Lock()
	err := r.reserveLocked(l.Run.ID, shard)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return r.commit(l, shard)
}

// putAll ingests logs in order: where placement puts them, or round-robin
// across the shards when spread is set, which puts most edges of a
// connected history across shards.
func putAll(t testing.TB, r *Router, logs []*provenance.RunLog, spread bool) {
	t.Helper()
	for i, l := range logs {
		var err error
		if spread {
			err = putOn(r, l, i%r.NumShards())
		} else {
			err = r.PutRunLog(l)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// membership maps every stored run to the one shard whose Runs() lists it.
func membership(t testing.TB, r *Router) map[string]int {
	t.Helper()
	at := map[string]int{}
	for si := 0; si < r.NumShards(); si++ {
		runs, err := r.Shard(si).Runs()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range runs {
			if prev, dup := at[id]; dup {
				t.Fatalf("run %s listed by shards %d and %d", id, prev, si)
			}
			at[id] = si
		}
	}
	return at
}

// shardCounts counts the runs each shard's Runs() lists.
func shardCounts(t testing.TB, r *Router) []int {
	t.Helper()
	counts := make([]int, r.NumShards())
	for _, si := range membership(t, r) {
		counts[si]++
	}
	return counts
}

// leastLoaded is the shard placement must pick for a run with no stored
// inputs: the fewest runs, then the lowest index.
func leastLoaded(counts []int) int {
	return slices.Index(counts, slices.Min(counts))
}

// chainSplits counts the consecutive runs of a chain that live on
// different shards: the hand-offs of an upstream walk from its tail.
func chainSplits(at map[string]int, logs []*provenance.RunLog) int {
	splits := 0
	for i := 1; i < len(logs); i++ {
		if at[logs[i].Run.ID] != at[logs[i-1].Run.ID] {
			splits++
		}
	}
	return splits
}

// placementHistory is a history with every placement case in it: chains
// (followed inputs), a star (a hub many runs use), diamonds (a fan-in over
// several branches), generator re-declarations and sources.
func placementHistory(tag string) []*provenance.RunLog {
	rng := rand.New(rand.NewSource(5))
	var logs []*provenance.RunLog
	for i := 0; i < 3; i++ {
		logs = append(logs, chainShape(rng, fmt.Sprintf("%s-c%d", tag, i), 30)...)
		logs = append(logs, starShape(rng, fmt.Sprintf("%s-s%d", tag, i), 12)...)
		logs = append(logs, diamondShape(rng, fmt.Sprintf("%s-d%d", tag, i), 8)...)
	}
	return logs
}

func TestPlacementFollowsInputs(t *testing.T) {
	// A 40-run chain stays on one shard: one round from its tail.
	const n = 40
	chain := chainShape(rand.New(rand.NewSource(1)), "pf", n)[:n+1]
	r := NewMem(4)
	putAll(t, r, chain, false)
	_, tr, err := r.TracedClosure(fmt.Sprintf("pf-art-%03d", n), store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rounds != 1 || tr.Crossings != 0 {
		t.Fatalf("40-run chain: %d rounds / %d crossings from its tail, want 1 / 0", tr.Rounds, tr.Crossings)
	}

	// Sources spread to the least-loaded shard, then the lowest index.
	r = NewMem(4)
	for i, size := range []int{3, 2, 1} {
		counts := shardCounts(t, r)
		want := leastLoaded(counts)
		c := chainShape(rand.New(rand.NewSource(1)), fmt.Sprintf("fan%d", i), size)[:size+1]
		putAll(t, r, c, false)
		if at := membership(t, r); at[c[0].Run.ID] != want || chainSplits(at, c) != 0 {
			t.Fatalf("chain %d: source on shard %d with counts %v before it (want %d), %d splits", i, at[c[0].Run.ID], counts, want, chainSplits(at, c))
		}
	}
	at := membership(t, r)
	home := func(i int) int { return at[fmt.Sprintf("fan%d-src", i)] }
	// A fan-in with two inputs from chain 1 and one each from chains 0 and
	// 2 goes with chain 1.
	fanIn := shapedRun("fan-in", "fan-in-x", []string{"fan0-art-003", "fan1-art-001", "fan1-art-002", "fan2-art-001"}, []string{"fan-out"})
	if err := r.PutRunLog(fanIn); err != nil {
		t.Fatal(err)
	}
	if got := membership(t, r)["fan-in"]; got != home(1) {
		t.Fatalf("fan-in placed on shard %d, want chain 1's shard %d", got, home(1))
	}
	// A tie between chains 0 (4 runs) and 2 (2 runs) goes to the shard
	// holding fewer runs.
	tie := shapedRun("fan-tie", "fan-tie-x", []string{"fan0-art-003", "fan2-art-001"}, []string{"fan-tie-out"})
	if err := r.PutRunLog(tie); err != nil {
		t.Fatal(err)
	}
	if got := membership(t, r)["fan-tie"]; got != home(2) {
		t.Fatalf("tied fan-in placed on shard %d, want the less loaded shard %d", got, home(2))
	}

	// Placement reads ingest order, never ID bytes: one history under two
	// tags places run by run identically.
	var placed [2][]int
	for i, tag := range []string{"alpha", "z9"} {
		logs := placementHistory(tag)
		r := NewMem(4)
		putAll(t, r, logs, false)
		at := membership(t, r)
		for _, l := range logs {
			placed[i] = append(placed[i], at[l.Run.ID])
		}
	}
	if !slices.Equal(placed[0], placed[1]) {
		t.Fatalf("the same history placed differently under two tags:\n%v\n%v", placed[0], placed[1])
	}
}

// TestPlacementBalanceGuard: a single 2 000-run chain would follow its
// inputs onto one shard; the guard splits it whenever the shard would hold
// more than 5/4 of the mean plus 64, so every shard stays within that bound
// and the upstream walk from the tail takes one round per segment.
func TestPlacementBalanceGuard(t *testing.T) {
	const n = 2000
	chain := chainShape(rand.New(rand.NewSource(1)), "bg", n)[:n+1]
	r := NewMem(4)
	for i, l := range chain {
		if err := r.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 || i == n {
			counts := shardCounts(t, r)
			for si, c := range counts {
				if 4*4*c > 5*(i+1)+256*4 {
					t.Fatalf("after %d runs shard %d holds %d: past 5/4 of the mean + 64 (%v)", i+1, si, c, counts)
				}
			}
		}
	}
	splits := chainSplits(membership(t, r), chain)
	_, tr, err := r.TracedClosure(fmt.Sprintf("bg-art-%03d", n), store.Up)
	if err != nil {
		t.Fatal(err)
	}
	if splits == 0 || tr.Rounds != splits+1 || tr.Crossings != splits {
		t.Fatalf("chain split %d times; pushdown took %d rounds / %d crossings, want splits+1 / splits", splits, tr.Rounds, tr.Crossings)
	}
}

// TestConcurrentDuplicateRunAcceptedOnce: variants of one run ID whose
// inputs vote for different shards race; the reservation admits exactly one,
// whatever shard each would have gone to.
func TestConcurrentDuplicateRunAcceptedOnce(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ { // one source per shard
		if err := r.PutRunLog(shapedRun(fmt.Sprintf("src-%d", s), fmt.Sprintf("src-%d-x", s), nil, []string{fmt.Sprintf("in-%d", s)})); err != nil {
			t.Fatal(err)
		}
	}
	if counts := shardCounts(t, r); !slices.Equal(counts, []int{1, 1, 1, 1}) {
		t.Fatalf("sources placed %v, want one per shard", counts)
	}
	// Several rounds, each racing 16 variants of a fresh ID from one start.
	const rounds, racers = 8, 16
	for round := 0; round < rounds; round++ {
		id := fmt.Sprintf("dup-%d", round)
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, racers)
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				errs[g] = r.PutRunLog(shapedRun(id, id+"-x", []string{fmt.Sprintf("in-%d", g%4)}, []string{id + "-out"}))
			}(g)
		}
		close(start)
		wg.Wait()
		won := 0
		for _, err := range errs {
			if err == nil {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("%d of %d racing puts of %s succeeded: %v", won, racers, id, errs)
		}
	}
	check := func(label string, r *Router) {
		t.Helper()
		at := membership(t, r)
		for round := 0; round < rounds; round++ {
			id := fmt.Sprintf("dup-%d", round)
			if _, ok := at[id]; !ok {
				t.Fatalf("%s: no shard lists %s", label, id)
			}
			if _, err := r.RunLog(id); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if len(at) != 4+rounds {
			t.Fatalf("%s: shards list %v, want the four sources and each raced ID once", label, at)
		}
		if st, err := r.Stats(); err != nil || st.Runs != 4+rounds {
			t.Fatalf("%s: Stats() = %+v, %v; want %d runs", label, st, err, 4+rounds)
		}
		if runs, _ := r.Runs(); len(runs) != 4+rounds {
			t.Fatalf("%s: Runs() = %v", label, runs)
		}
	}
	check("live", r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err = OpenWith(dir, 4, store.FileOptions{}); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("reopened", r)
}

// TestReopenKeepsPlacement: a reopened router restores the per-shard counts
// from the shards' Runs(), and new runs still follow their inputs.
func TestReopenKeepsPlacement(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenWith(dir, 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	logs := placementHistory("ro")
	putAll(t, r, logs, false)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err = OpenWith(dir, 4, store.FileOptions{}); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	counts := shardCounts(t, r)
	if !slices.Equal(r.loads, counts) {
		t.Fatalf("reopened counts %v, shards list %v", r.loads, counts)
	}
	for i := 0; i < 3; i++ {
		prev := fmt.Sprintf("ro-c%d-run-029", i)
		next := shapedRun(fmt.Sprintf("ro-c%d-next", i), fmt.Sprintf("ro-c%d-next-x", i), []string{fmt.Sprintf("ro-c%d-art-030", i)}, []string{fmt.Sprintf("ro-c%d-art-031", i)})
		if err := r.PutRunLog(next); err != nil {
			t.Fatal(err)
		}
		if at := membership(t, r); at[next.Run.ID] != at[prev] {
			t.Fatalf("after reopen, %s placed on shard %d, away from its input's shard %d", next.Run.ID, at[next.Run.ID], at[prev])
		}
	}
	counts = shardCounts(t, r)
	src := shapedRun("ro-new-src", "ro-new-src-x", nil, []string{"ro-new"})
	if err := r.PutRunLog(src); err != nil {
		t.Fatal(err)
	}
	if got, want := membership(t, r)[src.Run.ID], leastLoaded(counts); got != want {
		t.Fatalf("after reopen, a source went to shard %d with counts %v, want %d", got, counts, want)
	}
}
