package store

// Backend conformance property: for random generated runs, every backend
// agrees on every navigation primitive and on full closures.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/workloads"
)

func randomLog(t *testing.T, seed int64) *provenance.RunLog {
	t.Helper()
	wf := workloads.RandomLayered(seed, 4, 3, 2)
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 2})
	res, err := e.Run(context.Background(), wf, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := col.Log(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestQuickBackendsAgree(t *testing.T) {
	f := func(seed int64) bool {
		log := randomLog(t, seed)
		fs, err := OpenFileStore(t.TempDir())
		if err != nil {
			return false
		}
		defer fs.Close()
		backends := []Store{NewMemStore(), NewTripleStore(), fs}
		for _, s := range backends {
			if err := s.PutRunLog(log); err != nil {
				return false
			}
		}
		ref := backends[0]
		var entities []string
		for _, a := range log.Artifacts {
			entities = append(entities, a.ID)
		}
		for _, e := range log.Executions {
			entities = append(entities, e.ID)
		}
		for _, id := range entities {
			refLin, _ := ref.Closure(id, Up)
			refDeps, _ := ref.Closure(id, Down)
			for _, s := range backends[1:] {
				for _, dir := range []Direction{Up, Down} {
					want, _, _ := expandOne(ref, id, dir)
					got, ok, err := expandOne(s, id, dir)
					if err != nil || !ok || fmt.Sprint(got) != fmt.Sprint(want) {
						return false
					}
				}
				lin, err := s.Closure(id, Up)
				if err != nil || fmt.Sprint(lin) != fmt.Sprint(refLin) {
					return false
				}
				deps, err := s.Closure(id, Down)
				if err != nil || fmt.Sprint(deps) != fmt.Sprint(refDeps) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// encodeAdj renders an Expand result deterministically for comparison.
func encodeAdj(adj map[string][]string) string {
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, adj[k])
	}
	return b.String()
}

// Property: on randomized DAGs plus the fixed navEdgeCases runs, every
// backend's Expand matches MemStore's, for the whole graph as one frontier
// and for every one-ID frontier, and every backend's pushed-down Closure
// matches the per-node reference BFS, in both directions — the conformance
// contract of the batch traversal API.
func TestQuickExpandClosureConformance(t *testing.T) {
	f := func(seed int64) bool {
		logs := append([]*provenance.RunLog{randomLog(t, seed)}, navEdgeCases()...)
		fs, err := OpenFileStore(t.TempDir())
		if err != nil {
			return false
		}
		defer fs.Close()
		backends := []Store{NewMemStore(), NewTripleStore(), fs}
		for _, s := range backends {
			for _, l := range logs {
				if err := s.PutRunLog(l); err != nil {
					return false
				}
			}
		}
		seen := map[string]bool{}
		var entities []string
		for _, l := range logs {
			for _, a := range l.Artifacts {
				if !seen[a.ID] {
					seen[a.ID] = true
					entities = append(entities, a.ID)
				}
			}
			for _, e := range l.Executions {
				if !seen[e.ID] {
					seen[e.ID] = true
					entities = append(entities, e.ID)
				}
			}
		}
		probe := append(slices.Clone(entities), "ghost-entity")
		ref := backends[0]
		for _, s := range backends {
			for _, dir := range []Direction{Up, Down} {
				if got, err := s.Expand(navEdgeProbe, dir); err != nil || encodeAdj(got) != navEdgeWant[dir] {
					t.Logf("%s %v: edge-case Expand = %s, %v; want %s", s.Name(), dir, encodeAdj(got), err, navEdgeWant[dir])
					return false
				}
				// The whole graph as one frontier, then one ID at a time.
				want, _ := ref.Expand(probe, dir)
				got, err := s.Expand(probe, dir)
				if err != nil || encodeAdj(got) != encodeAdj(want) {
					t.Logf("%s %v: Expand mismatch (%v):\n got %s\nwant %s", s.Name(), dir, err, encodeAdj(got), encodeAdj(want))
					return false
				}
				for _, id := range probe {
					ns, ok, err := expandOne(s, id, dir)
					wantNs, wantOK := want[id]
					if err != nil || ok != wantOK || fmt.Sprint(ns) != fmt.Sprint(wantNs) {
						t.Logf("%s %v: Expand([%s]) = %v, %v, %v; want %v, %v", s.Name(), dir, id, ns, ok, err, wantNs, wantOK)
						return false
					}
				}
				// Pushed-down closure vs the per-node reference BFS vs the
				// per-hop one, including identical visit order.
				for _, id := range entities {
					want, werr := NaiveClosure(s, id, dir)
					got, gerr := s.Closure(id, dir)
					if (werr == nil) != (gerr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Logf("%s %v: Closure(%s) = %v, %v; want %v, %v", s.Name(), dir, id, got, gerr, want, werr)
						return false
					}
					fb, ferr := closeOverExpand(s.Expand, id, dir)
					if (werr == nil) != (ferr == nil) || fmt.Sprint(fb) != fmt.Sprint(want) {
						t.Logf("%s %v: closeOverExpand(%s) = %v, %v; want %v, %v", s.Name(), dir, id, fb, ferr, want, werr)
						return false
					}
				}
				if _, err := s.Closure("ghost-entity", dir); !errors.Is(err, ErrNotFound) {
					t.Logf("%s %v: ghost Closure err = %v", s.Name(), dir, err)
					return false
				}
				if _, err := NaiveClosure(s, "ghost-entity", dir); !errors.Is(err, ErrNotFound) {
					t.Logf("%s %v: ghost NaiveClosure err = %v", s.Name(), dir, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// navEdgeCases are two fixed runs the Expand conformance adds to every
// generated input: "edge-raw" is an artifact no execution generates, and
// "edge-dual" is stored as an artifact by edge-r1 and as an execution by
// edge-r2.
func navEdgeCases() []*provenance.RunLog {
	r1 := newRun("edge-r1")
	r1.used("edge-e1", "edge-dual")
	r1.used("edge-e1", "edge-raw")
	r1.gen("edge-e1", "edge-a1")
	r2 := newRun("edge-r2")
	r2.used("edge-dual", "edge-a1")
	r2.gen("edge-dual", "edge-b1")
	return []*provenance.RunLog{r1.l, r2.l}
}

// navEdgeProbe and navEdgeWant pin Expand on navEdgeCases: an unknown ID is
// absent, a generator-less artifact going Up has an empty entry, and
// "edge-dual" is classified artifact-first (its execution-side neighbors
// would be [edge-a1] Up and [edge-b1] Down).
var (
	navEdgeProbe = []string{"ghost-entity", "edge-raw", "edge-dual"}
	navEdgeWant  = map[Direction]string{
		Up:   "edge-dual=[];edge-raw=[];",
		Down: "edge-dual=[edge-e1];edge-raw=[edge-e1];",
	}
)

// closeLocal runs one CloseLocal call on w and lists what it expanded, in
// its order, as "ID=[neighbour IDs]". names maps the walk's handles to IDs
// and gains this call's: every neighbour of an expanded entity is expanded
// by this call or was by an earlier one of the same closure. It asserts
// each expanded entity appears once.
func closeLocal(t *testing.T, s Store, w *LocalWalk, names map[int32]string, seeds []string, dir Direction) []string {
	t.Helper()
	from := len(w.Order)
	s.(LocalCloser).CloseLocal(w, seeds, dir)
	if len(w.IDs) != len(w.Order) || len(w.Ends) != len(w.Order)+1 {
		t.Fatalf("%s: CloseLocal left %d handles, %d IDs, %d ends", s.Name(), len(w.Order), len(w.IDs), len(w.Ends))
	}
	for i, h := range w.Order[from:] {
		if _, dup := names[h]; dup {
			t.Fatalf("%s: CloseLocal expanded %s twice", s.Name(), w.IDs[from+i])
		}
		names[h] = w.IDs[from+i]
	}
	var out []string
	for i := from; i < len(w.Order); i++ {
		var ns []string
		for _, h := range w.Adj[w.Ends[i]:w.Ends[i+1]] {
			if int(h) >= w.Handles {
				t.Fatalf("%s: handle %d past the bound %d", s.Name(), h, w.Handles)
			}
			ns = append(ns, names[h])
		}
		out = append(out, fmt.Sprintf("%s=%v", w.IDs[i], ns))
	}
	return out
}

// Property: every LocalCloser backend's CloseLocal expands exactly the
// seed's reachable set — the seed plus its Closure — and reports each
// expanded entity's neighbors exactly as Expand would; a second call of
// the same closure expands nothing it reached, and Begin starts afresh.
// On a single backend the local fixpoint and the global closure coincide,
// which is what makes this the correctness contract the sharded router's
// pushdown builds on.
func TestQuickCloseLocalConformance(t *testing.T) {
	f := func(seed int64) bool {
		log := randomLog(t, seed)
		fs, err := OpenFileStore(t.TempDir())
		if err != nil {
			return false
		}
		defer fs.Close()
		backends := []Store{NewMemStore(), fs}
		for _, s := range backends {
			if err := s.PutRunLog(log); err != nil {
				return false
			}
		}
		var entities []string
		for _, a := range log.Artifacts {
			entities = append(entities, a.ID)
		}
		for _, e := range log.Executions {
			entities = append(entities, e.ID)
		}
		for _, s := range backends {
			var w LocalWalk
			for _, dir := range []Direction{Up, Down} {
				for _, id := range entities {
					w.Begin()
					local := closeLocal(t, s, &w, map[int32]string{}, []string{id}, dir)
					reach, err := s.Closure(id, dir)
					if err != nil {
						return false
					}
					wantKeys := map[string]bool{id: true}
					for _, n := range reach {
						wantKeys[n] = true
					}
					if len(local) != len(wantKeys) || w.IDs[0] != id {
						t.Logf("%s %v: CloseLocal(%s) expanded %v, want %d entities from the seed", s.Name(), dir, id, local, len(wantKeys))
						return false
					}
					probe := slices.Clone(w.IDs)
					for _, n := range probe {
						if !wantKeys[n] {
							t.Logf("%s %v: CloseLocal(%s) expanded %s outside the reachable set", s.Name(), dir, id, n)
							return false
						}
					}
					adj, err := s.Expand(probe, dir)
					if err != nil {
						return false
					}
					want := make([]string, len(probe))
					for i, n := range probe {
						want[i] = fmt.Sprintf("%s=%v", n, adj[n])
					}
					if fmt.Sprint(local) != fmt.Sprint(want) {
						t.Logf("%s %v: CloseLocal(%s) lists:\n got %v\nwant %v", s.Name(), dir, id, local, want)
						return false
					}
					// The same closure has reached all of it: a second call
					// from the seed and its reachable set expands nothing.
					if again := closeLocal(t, s, &w, map[int32]string{}, probe, dir); len(again) != 0 {
						t.Logf("%s %v: second CloseLocal(%s) of one closure expanded %v", s.Name(), dir, id, again)
						return false
					}
				}
				// Unknown seeds are ignored, not errors.
				w.Begin()
				if got := closeLocal(t, s, &w, map[int32]string{}, []string{"ghost-entity"}, dir); len(got) != 0 {
					t.Logf("%s %v: ghost CloseLocal = %v", s.Name(), dir, got)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// Property: lineage and dependents are converse relations on every backend.
func TestQuickLineageDependentsConverse(t *testing.T) {
	f := func(seed int64) bool {
		log := randomLog(t, seed)
		s := NewMemStore()
		if err := s.PutRunLog(log); err != nil {
			return false
		}
		for _, a := range log.Artifacts {
			lin, err := s.Closure(a.ID, Up)
			if err != nil {
				return false
			}
			for _, up := range lin {
				deps, err := s.Closure(up, Down)
				if err != nil {
					return false
				}
				found := false
				for _, d := range deps {
					if d == a.ID {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// --- table-indexed FileStore ≡ MemStore ≡ NaiveClosure -----------------------
//
// MemStore keeps the small map-based adjacency fold and is the oracle; the
// file store answers from its entity table. The two share no fold and no
// walk, so agreement on generated workloads — live, restored from a
// checkpoint, and rebuilt by a full scan — is the table's correctness test.

// runBuilder assembles one valid run log edge by edge, declaring every
// entity an event names.
type runBuilder struct {
	l     *provenance.RunLog
	arts  map[string]bool
	execs map[string]bool
}

func newRun(id string) *runBuilder {
	l := &provenance.RunLog{}
	l.Run = provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}
	return &runBuilder{l: l, arts: map[string]bool{}, execs: map[string]bool{}}
}

func (b *runBuilder) artifact(id string) {
	if !b.arts[id] {
		b.arts[id] = true
		b.l.Artifacts = append(b.l.Artifacts, &provenance.Artifact{ID: id, RunID: b.l.Run.ID, Type: "blob"})
	}
}

func (b *runBuilder) execution(id string) {
	if !b.execs[id] {
		b.execs[id] = true
		b.l.Executions = append(b.l.Executions, &provenance.Execution{ID: id, RunID: b.l.Run.ID, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK})
	}
}

func (b *runBuilder) event(kind provenance.EventKind, exec, art string) {
	b.execution(exec)
	b.artifact(art)
	b.l.Events = append(b.l.Events, provenance.Event{
		Seq: uint64(len(b.l.Events) + 1), RunID: b.l.Run.ID, Kind: kind, ExecutionID: exec, ArtifactID: art,
	})
}

func (b *runBuilder) used(exec, art string) { b.event(provenance.EventArtifactUsed, exec, art) }
func (b *runBuilder) gen(exec, art string)  { b.event(provenance.EventArtifactGen, exec, art) }

// generatedWorkload draws runs over a small shared ID pool, so that later
// runs re-declare earlier entities: generators get replaced, events repeat
// within and across runs, use/gen edges close cycles, and the "x" IDs are
// stored as artifacts by some runs and as executions by others.
func generatedWorkload(rng *rand.Rand, runs int) []*provenance.RunLog {
	pick := func(prefix string, n int) string { return fmt.Sprintf("%s%02d", prefix, rng.Intn(n)) }
	art := func() string {
		if rng.Intn(6) == 0 {
			return pick("x", 4)
		}
		return pick("a", 14)
	}
	exec := func() string {
		if rng.Intn(6) == 0 {
			return pick("x", 4)
		}
		return pick("e", 10)
	}
	var logs []*provenance.RunLog
	for r := 0; r < runs; r++ {
		b := newRun(fmt.Sprintf("run-%03d", r))
		generator := map[string]string{} // one generator per artifact within a run
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			e, a := exec(), art()
			if rng.Intn(3) == 0 {
				if g, ok := generator[a]; ok {
					e = g
				}
				generator[a] = e
				b.gen(e, a)
			} else {
				b.used(e, a)
			}
			if rng.Intn(4) == 0 { // the same event again
				last := b.l.Events[len(b.l.Events)-1]
				b.event(last.Kind, last.ExecutionID, last.ArtifactID)
			}
		}
		if rng.Intn(5) == 0 { // declared, never referenced
			b.artifact(art())
			b.execution(exec())
		}
		logs = append(logs, b.l)
	}
	return logs
}

// tableScenarios are the cases ISSUE 17 names, each small enough to read,
// next to the generated workloads that mix them.
func tableScenarios() map[string][]*provenance.RunLog {
	dual := newRun("r1")
	dual.used("e1", "both") // "both" is an artifact here…
	dual.gen("e1", "a2")
	dual2 := newRun("r2")
	dual2.used("both", "a2") // …and an execution here
	dual2.gen("both", "a3")

	regen1 := newRun("r1")
	regen1.used("e1", "a0")
	regen1.gen("e1", "a1")
	regen2 := newRun("r2")
	regen2.used("e2", "b0")
	regen2.gen("e2", "a1") // replaces e1 as a1's generator
	regen3 := newRun("r3")
	regen3.used("e3", "a1")
	regen3.gen("e3", "a2")

	dup := newRun("r1")
	for i := 0; i < 3; i++ {
		dup.used("e1", "a0")
		dup.used("e1", "a9")
		dup.gen("e1", "a1")
	}
	dup2 := newRun("r2")
	dup2.used("e1", "a0")
	dup2.used("e1", "a5")
	dup2.gen("e1", "a1")

	cyc := newRun("r1")
	cyc.used("e1", "a1")
	cyc.gen("e1", "a2")
	cyc2 := newRun("r2")
	cyc2.used("e2", "a2")
	cyc2.gen("e2", "a1") // a1 -> e2 -> a2 -> e1 -> a1

	scenarios := map[string][]*provenance.RunLog{
		"both kinds":            {dual.l, dual2.l},
		"generator replacement": {regen1.l, regen2.l, regen3.l},
		"duplicate events":      {dup.l, dup2.l},
		"cycle through seed":    {cyc.l, cyc2.l},
	}
	for seed := int64(1); seed <= 6; seed++ {
		scenarios[fmt.Sprintf("generated seed %d", seed)] = generatedWorkload(rand.New(rand.NewSource(seed)), 24)
	}
	return scenarios
}

// sortedUniqueStrings reports whether a list is strictly increasing.
func sortedUniqueStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// checkTableAgainstOracle compares every read of fs with the MemStore
// oracle over ids (all stored) plus an unknown one. Every slice a read
// returns is scribbled on afterwards: a result that aliased the table
// would corrupt the reads that follow.
func checkTableAgainstOracle(t *testing.T, fs *FileStore, mem *MemStore, ids []string) {
	t.Helper()
	const ghost = "ghost-entity"
	scribble := func(s []string) {
		for i := range s {
			s[i] = "scribbled"
		}
	}
	var memWalk, fsWalk LocalWalk
	for _, dir := range []Direction{Up, Down} {
		for _, id := range ids {
			got, ok, err := expandOne(fs, id, dir)
			want, _, _ := expandOne(mem, id, dir)
			if err != nil || !ok || !slices.Equal(got, want) || !sortedUniqueStrings(got) {
				t.Fatalf("Expand([%s], %v) = %v, %v, %v; oracle %v", id, dir, got, ok, err, want)
			}
			scribble(got)
		}
		if got, ok, err := expandOne(fs, ghost, dir); ok || err != nil {
			t.Fatalf("Expand([unknown], %v) = %v, %v, %v; want absent", dir, got, ok, err)
		}
	}

	frontier := append(slices.Clone(ids), ghost, ids[0]) // an unknown ID and a repeated one
	for _, dir := range []Direction{Up, Down} {
		want, _ := mem.Expand(frontier, dir)
		for round := 0; round < 2; round++ { // the second round reads after the scribble
			got, err := fs.Expand(frontier, dir)
			if err != nil || encodeAdj(got) != encodeAdj(want) {
				t.Fatalf("Expand %v:\n got %s\nwant %s (%v)", dir, encodeAdj(got), encodeAdj(want), err)
			}
			for _, ns := range got {
				_ = append(ns, "appended") // must not land in another entity's list
			}
			if encodeAdj(got) != encodeAdj(want) {
				t.Fatalf("Expand %v: appending to one list changed another: %s", dir, encodeAdj(got))
			}
			for _, ns := range got {
				scribble(ns)
			}
		}
		for i, id := range ids {
			naive, err := NaiveClosure(mem, id, dir)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := mem.Closure(id, dir)
			got, err := fs.Closure(id, dir)
			if err != nil || !slices.Equal(got, naive) || !slices.Equal(want, naive) {
				t.Fatalf("Closure(%s, %v) = %v, %v; MemStore %v; NaiveClosure %v", id, dir, got, err, want, naive)
			}
			scribble(got)

			// The local fixpoint of one closure over two calls: two seeds
			// and an unknown one, then a third seed, whose walk stops where
			// the first call reached. Same entities, same discovery order,
			// same lists.
			first := []string{id, ids[(i+1)%len(ids)], ghost}
			then := []string{ids[(i+2)%len(ids)]}
			memWalk.Begin()
			fsWalk.Begin()
			memNames, fsNames := map[int32]string{}, map[int32]string{}
			for _, seeds := range [][]string{first, then} {
				want := closeLocal(t, mem, &memWalk, memNames, seeds, dir)
				got := closeLocal(t, fs, &fsWalk, fsNames, seeds, dir)
				if !slices.Equal(got, want) {
					t.Fatalf("CloseLocal(%v, %v) = %v; oracle %v", seeds, dir, got, want)
				}
			}
		}
		if _, err := fs.Closure(ghost, dir); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Closure(unknown, %v) err = %v, want ErrNotFound", dir, err)
		}
	}
}

// TestTableMatchesOracle holds the table-indexed FileStore to the MemStore
// oracle and the per-edge reference BFS after every ingest state that
// matters: live, reopened from a checkpoint taken mid-history (snapshot
// restore plus suffix replay), and reopened by full scan.
func TestTableMatchesOracle(t *testing.T) {
	for name, logs := range tableScenarios() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := OpenFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemStore()
			seen := map[string]bool{}
			var ids []string
			for i, l := range logs {
				if err := fs.PutRunLog(l); err != nil {
					t.Fatal(err)
				}
				if err := mem.PutRunLog(l); err != nil {
					t.Fatal(err)
				}
				if i == len(logs)/2 {
					if err := fs.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				for _, a := range l.Artifacts {
					if !seen[a.ID] {
						seen[a.ID] = true
						ids = append(ids, a.ID)
					}
				}
				for _, e := range l.Executions {
					if !seen[e.ID] {
						seen[e.ID] = true
						ids = append(ids, e.ID)
					}
				}
			}
			checkTableAgainstOracle(t, fs, mem, ids)
			wantStats, _ := fs.Stats()
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}

			for _, mode := range []string{"checkpoint + suffix", "full scan"} {
				if mode == "full scan" {
					if err := os.Remove(CheckpointPath(dir)); err != nil {
						t.Fatal(err)
					}
				}
				re, err := OpenFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := re.LastCheckpoint(); ok != (mode != "full scan") {
					t.Fatalf("%s: LastCheckpoint ok = %v", mode, ok)
				}
				if st, _ := re.Stats(); st != wantStats {
					t.Fatalf("%s: Stats = %+v, want %+v", mode, st, wantStats)
				}
				checkTableAgainstOracle(t, re, mem, ids)
				re.Close()
			}
		})
	}
}

// TestHubFoldOutOfOrder folds a hub artifact's 10 000 consumers in shuffled
// order, half of them twice. Keeping the list sorted at fold time must not
// cost a sort (or a linear dedup scan) per insert: that fold takes tens of
// seconds at this size, the binary-search insert tens of milliseconds, and
// the ceiling sits between with room for a loaded machine.
func TestHubFoldOutOfOrder(t *testing.T) {
	const n = 10000
	order := rand.New(rand.NewSource(17)).Perm(n)
	b := newRun("hub-run")
	for _, i := range order {
		b.used(fmt.Sprintf("e-%05d", i), "hub")
		if i%2 == 0 {
			b.used(fmt.Sprintf("e-%05d", i), "hub")
		}
	}
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	mem := NewMemStore()
	if err := mem.PutRunLog(b.l); err != nil {
		t.Fatal(err)
	}
	if err := fs.PutRunLog(b.l); err != nil { // validates, encodes, appends: the same work at any fold cost
		t.Fatal(err)
	}
	fresh := newEntityTable()
	start := time.Now()
	fresh.fold(b.l, 0)
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("folding a %d-consumer hub out of order took %v", n, d)
	}
	got, _, err := expandOne(fs, "hub", Down)
	want, _, _ := expandOne(mem, "hub", Down)
	if err != nil || len(got) != n || !slices.Equal(got, want) {
		t.Fatalf("hub consumers: %d IDs, %v; oracle %d", len(got), err, len(want))
	}
	down, err := fs.Closure("hub", Down)
	if err != nil || !slices.Equal(down, want) {
		t.Fatalf("hub dependents: %d IDs, %v; want its %d consumers in ID order", len(down), err, n)
	}
}

// TestClosureAllocations pins the allocation profile the table buys: a
// closure over a 256-entity chain allocates a constant handful of objects
// (the result and whatever the pooled walk grows the first time) where the
// map-based walk allocated per entity visited. Instrumentation adds none:
// each count is the same with metric recording on as with it off.
func TestClosureAllocations(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	prev := "art-000"
	for i := 1; i <= 128; i++ { // 128 executions + 129 artifacts
		out := fmt.Sprintf("art-%03d", i)
		if err := fs.PutRunLog(synthRun(fmt.Sprintf("run-%03d", i), []string{prev}, []string{out})); err != nil {
			t.Fatal(err)
		}
		prev = out
	}
	if lin, err := fs.Closure(prev, Up); err != nil || len(lin) != 256 {
		t.Fatalf("chain lineage = %d entities, %v; want 256", len(lin), err)
	}
	seeds := []string{prev}
	var w LocalWalk
	for name, op := range map[string]func(){
		"Closure": func() {
			if _, err := fs.Closure(prev, Up); err != nil {
				t.Fatal(err)
			}
		},
		"CloseLocal": func() {
			w.Begin()
			fs.CloseLocal(&w, seeds, Up)
		},
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs > 8 {
			t.Errorf("%s over a 256-entity chain: %v allocations per call, want ≤ 8", name, allocs)
		}
		on, off := fewestAllocs(op, true), fewestAllocs(op, false)
		if on != off {
			t.Errorf("%s: %d allocations per call with metrics on, %d with them off", name, on, off)
		}
	}
}

// fewestAllocs returns the fewest objects one call of op allocates over
// 100 calls, with metric recording switched on or off. The fewest, not the
// mean: under the race detector sync.Pool drops a random quarter of what
// is put back, so a pooled walk's mean count is noise there.
func fewestAllocs(op func(), obsOn bool) uint64 {
	defer obs.SetEnabled(obs.SetEnabled(obsOn))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	fewest := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 100; i++ {
		runtime.ReadMemStats(&m0)
		op()
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, m1.Mallocs-m0.Mallocs)
	}
	return fewest
}
