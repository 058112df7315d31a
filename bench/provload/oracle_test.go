package main

import (
	"testing"

	"repro/internal/query/pql"
	"repro/internal/store"
)

// TestOracleCatchesCorruptedAnswers feeds the checks one right answer and
// then the ways a wrong one can look: an entity missing, one invented, one
// repeated, a changed PQL row, a lost acknowledged run.
func TestOracleCatchesCorruptedAnswers(t *testing.T) {
	g := NewGen(5)
	orc := newOracle()
	plan := seedPlan(findWorkload("lineage").quick)
	if err := orc.add(g, plan); err != nil {
		t.Fatal(err)
	}
	root := g.ChainTail(3, 6)
	right, err := store.NaiveClosure(orc.mem, root, store.Up)
	if err != nil || len(right) < 4 {
		t.Fatalf("oracle closure of %s: %d entities, %v", root, len(right), err)
	}
	frontier := []string{g.ChainTail(0, 1), g.ChainTail(1, 1)}
	adj, err := orc.mem.Expand(frontier, store.Down)
	if err != nil {
		t.Fatal(err)
	}

	wrongOf := func(s readSample) int {
		want, err := orc.answer(s)
		if err != nil {
			t.Fatal(err)
		}
		v := &verdict{}
		checkReads(v, []readSample{s}, []bounds{{lower: want, upper: want}})
		return v.wrong
	}
	closure := func(answer []string) readSample {
		return readSample{closure: true, ids: []string{root}, dir: store.Up, answer: answer}
	}
	if n := wrongOf(closure(right)); n != 0 {
		t.Fatalf("the right closure was rejected")
	}
	if n := wrongOf(readSample{ids: frontier, dir: store.Down, adj: adj}); n != 0 {
		t.Fatalf("the right expansion was rejected")
	}
	for name, s := range map[string]readSample{
		"closure missing an entity": closure(right[1:]),
		"closure with a stranger":   closure(append([]string{"a-bogus"}, right...)),
		"closure repeating itself":  closure(append([]string{right[0]}, right...)),
		"expansion missing a seed":  {ids: frontier, dir: store.Down, adj: map[string][]string{frontier[0]: adj[frontier[0]]}},
		"expansion with a stranger": {ids: frontier, dir: store.Down, adj: map[string][]string{frontier[0]: adj[frontier[0]], frontier[1]: {"e-bogus"}}},
	} {
		if wrongOf(s) != 1 {
			t.Errorf("%s was accepted", name)
		}
	}

	// Under ingest an answer may lie anywhere between the seeded closure
	// and the final one, but not outside.
	v := &verdict{}
	grown := append(append([]string(nil), right...), "e-later")
	checkReads(v, []readSample{closure(right), closure(grown), closure(append(grown, "e-never"))},
		[]bounds{
			{lower: map[string][]string{"": right}, upper: map[string][]string{"": grown}},
			{lower: map[string][]string{"": right}, upper: map[string][]string{"": grown}},
			{lower: map[string][]string{"": right}, upper: map[string][]string{"": grown}},
		})
	if v.wrong != 1 {
		t.Errorf("growing closure: %d of 3 answers rejected, want only the one past the upper bound", v.wrong)
	}

	var diamonds []string
	for _, r := range plan {
		if r.f == Diamond {
			diamonds = append(diamonds, generated(g.Run(r.f, r.stream, r.index))...)
		}
	}
	queries := pqlBattery(diamonds)
	res, err := pql.Run(orc.mem, queries[0])
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("query 0 on the oracle: %v, %v", res, err)
	}
	good := digest(res)
	res.Rows[0][0] += "x"
	v = &verdict{}
	if err := orc.checkQueries(v, queries, map[int]map[string]int{0: {good: 3, digest(res): 2}}); err != nil {
		t.Fatal(err)
	}
	if v.checked != 5 || v.wrong != 2 {
		t.Errorf("queries: checked %d wrong %d, want 5 and 2", v.checked, v.wrong)
	}

	stored, _ := orc.mem.Runs()
	v = &verdict{}
	orc.checkRuns(v, stored[1:])
	if v.wrong != 1 {
		t.Errorf("a lost acknowledged run went unnoticed")
	}
}
