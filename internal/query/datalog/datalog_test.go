package datalog

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workloads"
)

func TestParseAtom(t *testing.T) {
	a, err := ParseAtom("dep(X, 'art-1')")
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "dep" || len(a.Args) != 2 {
		t.Fatalf("atom = %+v", a)
	}
	if !a.Args[0].IsVar || a.Args[0].Value != "X" {
		t.Fatalf("arg0 = %+v", a.Args[0])
	}
	if a.Args[1].IsVar || a.Args[1].Value != "art-1" {
		t.Fatalf("arg1 = %+v", a.Args[1])
	}
	if _, err := ParseAtom("no parens"); err == nil {
		t.Fatal("malformed atom parsed")
	}
	if _, err := ParseAtom("(x)"); err == nil {
		t.Fatal("empty predicate parsed")
	}
	if _, err := ParseAtom("p(?, a)"); err == nil {
		t.Fatal("variable without a name parsed")
	}
}

func TestParseTermForms(t *testing.T) {
	cases := []struct {
		in    string
		isVar bool
		val   string
	}{
		{"X", true, "X"},
		{"Xyz", true, "Xyz"},
		{"?x", true, "x"},
		{"_", true, "_"},
		{"abc", false, "abc"},
		{"'Quoted Const'", false, "Quoted Const"},
		{"'50%'", false, "50%"},
		{"42", false, "42"},
	}
	for _, c := range cases {
		got := parseTerm(c.in)
		if got.IsVar != c.isVar || got.Value != c.val {
			t.Fatalf("parseTerm(%q) = %+v", c.in, got)
		}
	}
}

func TestParseProgramFactsAndRules(t *testing.T) {
	p, err := ParseProgram(`
% genealogy
parent(alice, bob).
parent(bob, carol).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
tag('50%', x). % a '%' inside quotes starts no comment
q(Y) :- tag('50%', Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := p.Query(mustAtom(t, "q(Y)")); err != nil || len(q.Rows) != 1 || q.Rows[0][0] != "x" {
		t.Fatalf("q(Y) = %v, %v; want [[x]]", q, err)
	}
	if p.FactCount("parent") != 2 {
		t.Fatalf("parent facts = %d", p.FactCount("parent"))
	}
	res, err := p.Query(mustAtom(t, "ancestor(alice, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "bob" || res.Rows[1][0] != "carol" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func mustAtom(t *testing.T, s string) Atom {
	t.Helper()
	a, err := ParseAtom(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRangeRestriction(t *testing.T) {
	p := NewProgram()
	r, err := ParseRule("bad(X, Y) :- parent(X, X)")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddRule(r); err == nil {
		t.Fatal("unbound head variable accepted")
	}
}

func TestArityChecking(t *testing.T) {
	p := NewProgram()
	if err := p.AddFact("f", "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFact("f", "a", "b"); err == nil {
		t.Fatal("arity drift accepted")
	}
}

func TestFactWithVariableRejected(t *testing.T) {
	if _, err := ParseProgram("f(X)."); err == nil {
		t.Fatal("fact with variable accepted")
	}
}

func TestTransitiveClosureChain(t *testing.T) {
	var src string
	n := 50
	for i := 0; i < n-1; i++ {
		src += fmt.Sprintf("edge(n%02d, n%02d).\n", i, i+1)
	}
	src += "reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- edge(X, Y), reach(Y, Z).\n"
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(mustAtom(t, "reach(n00, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n-1 {
		t.Fatalf("reachable = %d, want %d", len(res.Rows), n-1)
	}
}

func TestSharedVariableJoin(t *testing.T) {
	p, err := ParseProgram(`
uses(p1, a).
uses(p2, a).
uses(p3, b).
shares(X, Y) :- uses(X, A), uses(Y, A).
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(mustAtom(t, "shares(p1, X)"))
	if err != nil {
		t.Fatal(err)
	}
	// p1 shares with p1 and p2 (both use a), not p3.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestConstantInQueryFilters(t *testing.T) {
	p, err := ParseProgram("f(a, one). f(b, two). f(a, three).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(mustAtom(t, "f(a, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRepeatedVariableInQuery(t *testing.T) {
	p, err := ParseProgram("e(x, x). e(x, y).")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(mustAtom(t, "e(X, X)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "x" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// provenanceStore runs Figure 1 and stores the log.
func provenanceStore(t *testing.T) (store.Store, *engine.Result) {
	t.Helper()
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 1})
	res, err := e.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := col.Log(res.RunID)
	s := store.NewMemStore()
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	return s, res
}

func TestProvenanceProgramLineage(t *testing.T) {
	s, res := provenanceStore(t)
	p, err := NewProvenanceProgram(s)
	if err != nil {
		t.Fatal(err)
	}
	image := res.Artifacts["render.image"]
	q := mustAtom(t, fmt.Sprintf("ancestor('%s', X)", image))
	resq, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// image <- render <- surface <- contour <- grid <- reader: 5 ancestors.
	if len(resq.Rows) != 5 {
		t.Fatalf("ancestors = %v", resq.Rows)
	}
	// Cross-check against the store's native BFS.
	native, err := store.Lineage(s, image)
	if err != nil {
		t.Fatal(err)
	}
	if len(native) != len(resq.Rows) {
		t.Fatalf("datalog %d vs native %d", len(resq.Rows), len(native))
	}
}

func TestAncestorQueryViaStoreMatchesFixpoint(t *testing.T) {
	s, res := provenanceStore(t)
	p, err := NewProvenanceProgram(s)
	if err != nil {
		t.Fatal(err)
	}
	image := res.Artifacts["render.image"]
	grid := res.Artifacts["reader.data"]
	for _, q := range []string{
		fmt.Sprintf("ancestor('%s', X)", image), // upstream closure
		fmt.Sprintf("ancestor(X, '%s')", grid),  // downstream closure
		"ancestor('no-such-entity', X)",         // unknown constant: empty
	} {
		atom := mustAtom(t, q)
		want, err := p.Query(atom)
		if err != nil {
			t.Fatal(err)
		}
		got, pushed, err := AncestorQueryViaStore(s, atom)
		if err != nil || !pushed {
			t.Fatalf("%s: pushed=%v err=%v", q, pushed, err)
		}
		if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Fatalf("%s:\npushed-down %v %v\nfixpoint    %v %v", q, got.Vars, got.Rows, want.Vars, want.Rows)
		}
	}
	// Non-closure shapes fall back to the fixpoint.
	for _, q := range []string{"ancestor(X, Y)", "used(E, A)", "ancestor(a, b)"} {
		if _, pushed, _ := AncestorQueryViaStore(s, mustAtom(t, q)); pushed {
			t.Fatalf("%s: unexpectedly pushed down", q)
		}
	}
}

func TestProvenanceProgramDerivedFrom(t *testing.T) {
	s, res := provenanceStore(t)
	p, err := NewProvenanceProgram(s)
	if err != nil {
		t.Fatal(err)
	}
	q := mustAtom(t, fmt.Sprintf("derivedFrom(X, '%s')", res.Artifacts["reader.data"]))
	resq, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// plot, hist and surface are one step from grid.
	if len(resq.Rows) != 3 {
		t.Fatalf("derivedFrom grid = %v", resq.Rows)
	}
}

func TestProvenanceProgramSameSource(t *testing.T) {
	s, res := provenanceStore(t)
	p, err := NewProvenanceProgram(s)
	if err != nil {
		t.Fatal(err)
	}
	q := mustAtom(t, fmt.Sprintf("sameSource('%s', X)",
		res.Artifacts["histogram.plot"]))
	resq, err := p.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// plot, hist and surface all derive from the grid in one step.
	want := map[string]bool{
		res.Artifacts["histogram.plot"]:  true,
		res.Artifacts["histogram.hist"]:  true,
		res.Artifacts["contour.surface"]: true,
	}
	if len(resq.Rows) != len(want) {
		t.Fatalf("sameSource = %v", resq.Rows)
	}
	for _, row := range resq.Rows {
		if !want[row[0]] {
			t.Fatalf("unexpected sameSource member %v", row)
		}
	}
}

// TestZeroArityFacts: a derived p() answers Query with one empty row, an
// underivable one with none, and a zero-arity atom gates a rule body.
func TestZeroArityFacts(t *testing.T) {
	p, err := ParseProgram(`
edge(a, b).
nonempty() :- edge(X, Y).
loop() :- edge(X, X).
src(X) :- nonempty(), edge(X, Y).
stuck(X) :- loop(), edge(X, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]int{"nonempty()": 1, "loop()": 0, "src(X)": 1, "stuck(X)": 0} {
		res, err := p.Query(mustAtom(t, q))
		if err != nil || len(res.Rows) != want {
			t.Fatalf("%s = %v, %v; want %d rows", q, res, err, want)
		}
	}
}

func TestQueryArityMismatch(t *testing.T) {
	p, _ := ParseProgram("f(a, b).")
	if _, err := p.Query(mustAtom(t, "f(X)")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestEvaluateIdempotent(t *testing.T) {
	p, _ := ParseProgram("e(a, b). e(b, c). r(X,Y) :- e(X,Y). r(X,Z) :- e(X,Y), r(Y,Z).")
	first := p.Evaluate()
	if first == 0 {
		t.Fatal("nothing derived")
	}
	if second := p.Evaluate(); second != 0 {
		t.Fatalf("second evaluation derived %d new facts", second)
	}
}
