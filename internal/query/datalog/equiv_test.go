package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
	"repro/internal/workloads"
)

func equivStores(t *testing.T) []store.Store {
	t.Helper()
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 2, Agent: "equiv"})
	mem := store.NewMemStore()
	sharded := shardedstore.NewMem(4)
	for _, wf := range []func() (string, error){
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.MedicalImaging(), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.Genomics("sample-1"), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
		func() (string, error) {
			r, err := e.Run(context.Background(), workloads.Forecasting("station-A"), nil)
			if err != nil {
				return "", err
			}
			return r.RunID, nil
		},
	} {
		runID, err := wf()
		if err != nil {
			t.Fatal(err)
		}
		log, err := col.Log(runID)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.PutRunLog(log); err != nil {
			t.Fatal(err)
		}
		if err := sharded.PutRunLog(log); err != nil {
			t.Fatal(err)
		}
	}
	return []store.Store{mem, sharded}
}

func queryRows(t *testing.T, p *Program, atom string) [][]string {
	t.Helper()
	a, err := ParseAtom(atom)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(a)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// refRows answers atom from the facts the reference evaluator left in p.
// It does not go through Query, which would run the streaming evaluator
// over the reference's fixpoint and hide a fact only one of them derives.
func refRows(t *testing.T, p *Program, atom string) [][]string {
	t.Helper()
	a, err := ParseAtom(atom)
	if err != nil {
		t.Fatal(err)
	}
	return p.matchReference(a).Rows
}

// TestStreamingFixpointMatchesReference pins the relalg-backed semi-naive
// evaluator to the reference evaluator over real provenance from both a
// MemStore and a 4-shard router: same derived-fact count at fixpoint and
// identical sorted answers for a battery of query atoms, including the
// recursive ancestor closure.
func TestStreamingFixpointMatchesReference(t *testing.T) {
	atoms := []string{
		"dep(X, Y)",
		"ancestor(X, Y)",
		"derivedFrom(A, B)",
		"sameSource(A, B)",
		"sameSource(A, A)",
		"ancestor(X, X)",
	}
	for si, s := range equivStores(t) {
		ref, err := NewProvenanceProgram(s)
		if err != nil {
			t.Fatal(err)
		}
		str, err := NewProvenanceProgram(s)
		if err != nil {
			t.Fatal(err)
		}
		nref := ref.evaluateReference()
		nstr := str.Evaluate()
		if nref != nstr {
			t.Fatalf("store %d: derived %d (streaming) vs %d (reference)", si, nstr, nref)
		}
		for _, atom := range atoms {
			want := refRows(t, ref, atom)
			got := queryRows(t, str, atom)
			if len(want) != len(got) {
				t.Fatalf("store %d %s: %d rows vs %d", si, atom, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if want[i][j] != got[i][j] {
						t.Fatalf("store %d %s: row %d: %v vs %v", si, atom, i, got[i], want[i])
					}
				}
			}
		}
		// Bound-argument ancestor queries agree too (and with the
		// store-pushdown path, which bypasses the fixpoint entirely).
		for _, row := range refRows(t, ref, "generated(E, A)") {
			atom := fmt.Sprintf("ancestor('%s', Y)", row[1])
			want := refRows(t, ref, atom)
			got := queryRows(t, str, atom)
			if len(want) != len(got) {
				t.Fatalf("store %d %s: %d rows vs %d", si, atom, len(got), len(want))
			}
			a, err := ParseAtom(atom)
			if err != nil {
				t.Fatal(err)
			}
			pushed, ok, err := AncestorQueryViaStore(s, a)
			if err != nil || !ok {
				t.Fatalf("store %d %s: pushdown ok=%v err=%v", si, atom, ok, err)
			}
			if len(pushed.Rows) != len(want) {
				t.Fatalf("store %d %s: pushdown %d rows vs %d", si, atom, len(pushed.Rows), len(want))
			}
			break // one bound probe per store keeps the test fast
		}
	}
}

// TestStreamingFixpointRandomGraphs cross-checks the two evaluators on
// randomized reachability programs, exercising recursion, constants in
// rule bodies and repeated head variables.
func TestStreamingFixpointRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rules := `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
loop(X) :- reach(X, X).
from0(Y) :- reach(n0, Y).
pair(X, X) :- edge(X, X).
`
	for iter := 0; iter < 30; iter++ {
		nodes := 3 + rng.Intn(5)
		edges := make([][2]string, 0, nodes*2)
		for i := 0; i < nodes*2; i++ {
			edges = append(edges, [2]string{
				fmt.Sprintf("n%d", rng.Intn(nodes)),
				fmt.Sprintf("n%d", rng.Intn(nodes)),
			})
		}
		build := func() *Program {
			p, err := ParseProgram(rules)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range edges {
				if err := p.AddFact("edge", e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			return p
		}
		ref, str := build(), build()
		if nr, ns := ref.evaluateReference(), str.Evaluate(); nr != ns {
			t.Fatalf("iter %d: derived %d (streaming) vs %d (reference)", iter, ns, nr)
		}
		for _, atom := range []string{"reach(X, Y)", "loop(X)", "from0(Y)", "pair(X, Y)", "reach(X, n1)"} {
			want := refRows(t, ref, atom)
			got := queryRows(t, str, atom)
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("iter %d %s:\n got %v\nwant %v", iter, atom, got, want)
			}
		}
	}
}
