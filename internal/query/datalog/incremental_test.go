package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// graphRules and graphAtoms are TestStreamingFixpointRandomGraphs' program
// and queries, one rule per entry so they can arrive in batches.
var (
	graphRules = []string{
		"reach(X, Y) :- edge(X, Y)",
		"reach(X, Z) :- edge(X, Y), reach(Y, Z)",
		"loop(X) :- reach(X, X)",
		"from0(Y) :- reach(n0, Y)",
		"pair(X, X) :- edge(X, X)",
	}
	graphAtoms = []string{"reach(X, Y)", "loop(X)", "from0(Y)", "pair(X, Y)", "reach(X, n1)"}
)

// plansBound reads the planner's bind counter.
func plansBound() uint64 {
	return obs.Default().Counter("prov_exec_plans_total", "Conjunctive query plans compiled.").Value()
}

// incrementalCase is one schedule of an incremental evaluation: edges
// arrive one by one, a batch ends after each edge whose cut is set (with a
// Query there instead of an Evaluate when query is set), the first
// ruleCut rules are in the program from the start and the rest arrive just
// before edge ruleAt (after the last edge when ruleAt == len(edges)).
type incrementalCase struct {
	edges   [][2]string
	cut     []bool
	query   []bool
	ruleCut int
	ruleAt  int
}

// caseFromBytes decodes a schedule: data[0] picks the node count, data[1]
// the rule split, data[2] where the second rule batch lands, and each
// following triple one edge (from, to, flags: bit 0 ends a batch, bit 1
// makes that batch end with a Query). At most 16 edges, so the reference's
// nested loops stay small.
func caseFromBytes(data []byte) incrementalCase {
	var c incrementalCase
	if len(data) < 3 {
		return c
	}
	nodes := 3 + int(data[0])%6
	for i := 3; i+2 < len(data) && len(c.edges) < 16; i += 3 {
		c.edges = append(c.edges, [2]string{
			fmt.Sprintf("n%d", int(data[i])%nodes),
			fmt.Sprintf("n%d", int(data[i+1])%nodes),
		})
		c.cut = append(c.cut, data[i+2]&1 != 0)
		c.query = append(c.query, data[i+2]&2 != 0)
	}
	c.ruleCut = int(data[1]) % (len(graphRules) + 1)
	c.ruleAt = int(data[2]) % (len(c.edges) + 1)
	return c
}

// check runs the schedule and compares every query atom's answer with a
// fresh program's fixpoint over the same rules and edges and with the
// reference evaluator's. It then checks that an Evaluate with nothing new
// derives nothing and binds no plan.
func (c incrementalCase) check() error {
	inc := NewProgram()
	addRules := func(srcs []string) error {
		for _, src := range srcs {
			r, err := ParseRule(src)
			if err != nil {
				return err
			}
			if err := inc.AddRule(r); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addRules(graphRules[:c.ruleCut]); err != nil {
		return err
	}
	for i, e := range c.edges {
		if i == c.ruleAt {
			if err := addRules(graphRules[c.ruleCut:]); err != nil {
				return err
			}
		}
		if err := inc.AddFact("edge", e[0], e[1]); err != nil {
			return err
		}
		switch {
		case c.cut[i] && c.query[i]:
			if _, err := inc.Query(mustParseAtom(graphAtoms[i%len(graphAtoms)])); err != nil {
				return err
			}
		case c.cut[i]:
			inc.Evaluate()
		}
	}
	if c.ruleAt == len(c.edges) {
		if err := addRules(graphRules[c.ruleCut:]); err != nil {
			return err
		}
	}

	src := ""
	for _, r := range graphRules {
		src += r + ".\n"
	}
	for _, e := range c.edges {
		src += fmt.Sprintf("edge(%s, %s).\n", e[0], e[1])
	}
	fresh, err := ParseProgram(src)
	if err != nil {
		return err
	}
	ref, err := ParseProgram(src)
	if err != nil {
		return err
	}
	ref.evaluateReference()
	for _, s := range graphAtoms {
		a := mustParseAtom(s)
		got, err := inc.Query(a)
		if err != nil {
			return err
		}
		want, err := fresh.Query(a)
		if err != nil {
			return err
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			return fmt.Errorf("%s: incremental %v, fresh %v", s, got.Rows, want.Rows)
		}
		if refRows := ref.matchReference(a).Rows; fmt.Sprint(got.Rows) != fmt.Sprint(refRows) {
			return fmt.Errorf("%s: incremental %v, reference %v", s, got.Rows, refRows)
		}
	}

	before := plansBound()
	if n := inc.Evaluate(); n != 0 {
		return fmt.Errorf("Evaluate with nothing new derived %d facts", n)
	}
	if after := plansBound(); after != before {
		return fmt.Errorf("Evaluate with nothing new bound %d plans", after-before)
	}
	return nil
}

func mustParseAtom(s string) Atom {
	a, err := ParseAtom(s)
	if err != nil {
		panic(err)
	}
	return a
}

// TestIncrementalEvaluateMatchesFresh feeds random graphs in several fact
// batches and the rules in two, evaluating or querying between batches,
// and requires the same answers as a fresh program and the reference.
func TestIncrementalEvaluateMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 200; iter++ {
		data := make([]byte, 3+3*(4+rng.Intn(12)))
		rng.Read(data)
		c := caseFromBytes(data)
		if err := c.check(); err != nil {
			t.Fatalf("iter %d (%d edges, rules %d+%d, second batch before edge %d): %v",
				iter, len(c.edges), c.ruleCut, len(graphRules)-c.ruleCut, c.ruleAt, err)
		}
	}
}

// FuzzIncrementalEvaluate is TestIncrementalEvaluateMatchesFresh's
// property over fuzzer-chosen schedules (caseFromBytes).
func FuzzIncrementalEvaluate(f *testing.F) {
	f.Add([]byte{4, 2, 3, 0, 1, 1, 1, 2, 0, 2, 0, 3, 3, 3, 1})
	f.Add([]byte{0, 5, 0, 0, 0, 1, 0, 1, 2, 1, 0, 0})
	f.Add([]byte{2, 0, 9, 1, 2, 1, 2, 3, 1, 3, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := caseFromBytes(data).check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRetireAndFactsSince: FactsSince reads a predicate's facts from a
// watermark on, Retire drops a rule with its facts (refusing a predicate
// another rule reads), and a rule added again under the retired name is
// evaluated afresh.
func TestRetireAndFactsSince(t *testing.T) {
	p, err := ParseProgram(`
edge(a, b). edge(b, c).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), reach(Y, Z).
top(X) :- reach(a, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	p.Evaluate()
	if got := fmt.Sprint(p.FactsSince("reach", 0)); got != "[[a b] [b c] [a c]]" {
		t.Fatalf("reach facts = %s", got)
	}
	mark := p.FactCount("reach")
	if err := p.AddFact("edge", "c", "d"); err != nil {
		t.Fatal(err)
	}
	p.Evaluate()
	if got := fmt.Sprint(p.FactsSince("reach", mark)); got != "[[c d] [b d] [a d]]" {
		t.Fatalf("reach facts since %d = %s", mark, got)
	}

	if err := p.Retire("reach"); err == nil {
		t.Fatal("retired reach while top reads it")
	}
	if err := p.Retire("top"); err != nil {
		t.Fatal(err)
	}
	if err := p.Retire("reach"); err != nil {
		t.Fatal(err)
	}
	if len(p.rules) != 0 || p.FactCount("reach") != 0 || p.FactsSince("top", 0) != nil {
		t.Fatalf("retired rules or facts remain: %d rules, %d reach facts", len(p.rules), p.FactCount("reach"))
	}

	r, err := ParseRule("reach(X, Y) :- edge(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddRule(r); err != nil {
		t.Fatal(err)
	}
	if n := p.Evaluate(); n != 3 {
		t.Fatalf("re-added rule derived %d facts, want 3", n)
	}
}
