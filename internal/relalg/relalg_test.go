package relalg

import (
	"strings"
	"testing"
	"testing/quick"
)

// genes: (gene, organism, score)
func genes(t *testing.T) *Relation {
	t.Helper()
	r, err := NewRelation("genes", []string{"gene", "organism", "score"}, [][]Val{
		{"brca1", "human", int64(90)},
		{"brca2", "human", int64(85)},
		{"tp53", "human", int64(99)},
		{"tp53", "mouse", int64(80)},
		{"sonic", "mouse", int64(70)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// studies: (gene, study)
func studies(t *testing.T) *Relation {
	t.Helper()
	r, err := NewRelation("studies", []string{"g", "study"}, [][]Val{
		{"brca1", "S1"},
		{"tp53", "S1"},
		{"tp53", "S2"},
		{"unknown", "S3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("r", []string{"a", "a"}, nil); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewRelation("r", []string{""}, nil); err == nil {
		t.Fatal("empty column accepted")
	}
	if _, err := NewRelation("r", []string{"a"}, [][]Val{{int64(1), int64(2)}}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestBaseProvenance(t *testing.T) {
	r := genes(t)
	if r.Len() != 5 {
		t.Fatalf("len = %d", r.Len())
	}
	for i, tup := range r.Tuples {
		if len(tup.Prov) != 1 || len(tup.Prov[0]) != 1 {
			t.Fatalf("tuple %d prov = %v", i, tup.Prov)
		}
	}
	if string(r.Tuples[0].Prov[0][0]) != "genes:0" {
		t.Fatalf("base ID = %s", r.Tuples[0].Prov[0][0])
	}
}

func TestSelectKeepsWitnesses(t *testing.T) {
	r := genes(t)
	pred, err := Eq(r, "organism", "mouse")
	if err != nil {
		t.Fatal(err)
	}
	s := Select(r, pred)
	if s.Len() != 2 {
		t.Fatalf("selected %d", s.Len())
	}
	for _, tup := range s.Tuples {
		ids := AllBaseTuples(tup.Prov)
		if len(ids) != 1 || !strings.HasPrefix(string(ids[0]), "genes:") {
			t.Fatalf("prov = %v", tup.Prov)
		}
	}
}

func TestSemijoinFiltersByKeySet(t *testing.T) {
	r := genes(t)
	semijoin := func(col string, keys map[Val]bool) (*Relation, error) {
		it, err := StreamSemijoin(newScan(r), col, keys)
		if err != nil {
			return nil, err
		}
		return materialize(it, "⋉")
	}
	s, err := semijoin("organism", map[Val]bool{"mouse": true, "yeti": true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("semijoined %d", s.Len())
	}
	for _, tup := range s.Tuples {
		if tup.Values[1] != "mouse" {
			t.Fatalf("tuple %v escaped the key set", tup.Values)
		}
		if ids := AllBaseTuples(tup.Prov); len(ids) != 1 || !strings.HasPrefix(string(ids[0]), "genes:") {
			t.Fatalf("prov = %v", tup.Prov)
		}
	}
	if _, err := semijoin("nope", nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Empty key set: empty result, same schema.
	empty, err := semijoin("organism", nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty semijoin = %v, %v", empty, err)
	}
}

func TestProjectMergesDuplicateWitnesses(t *testing.T) {
	r := genes(t)
	p, err := Project(r, "gene")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 { // brca1, brca2, tp53, sonic
		t.Fatalf("projected %d, want 4", p.Len())
	}
	ws, err := WhyProvenance(p, "gene", "tp53")
	if err != nil {
		t.Fatal(err)
	}
	// tp53 appears in rows 2 and 3: two alternative witnesses.
	if len(ws) != 2 {
		t.Fatalf("tp53 witnesses = %v", ws)
	}
	ids := AllBaseTuples(ws)
	if len(ids) != 2 || ids[0] != "genes:2" || ids[1] != "genes:3" {
		t.Fatalf("tp53 base tuples = %v", ids)
	}
}

func TestJoinCrossesWitnesses(t *testing.T) {
	g := genes(t)
	s := studies(t)
	j, err := Join(g, s, "gene", "g")
	if err != nil {
		t.Fatal(err)
	}
	// brca1×S1, tp53(human)×S1, tp53(human)×S2, tp53(mouse)×S1, tp53(mouse)×S2.
	if j.Len() != 5 {
		t.Fatalf("join size = %d, want 5", j.Len())
	}
	// Every joined tuple's witness includes one genes and one studies tuple.
	for _, tup := range j.Tuples {
		if len(tup.Prov) != 1 || len(tup.Prov[0]) != 2 {
			t.Fatalf("join prov = %v", tup.Prov)
		}
		hasG, hasS := false, false
		for _, id := range tup.Prov[0] {
			if strings.HasPrefix(string(id), "genes:") {
				hasG = true
			}
			if strings.HasPrefix(string(id), "studies:") {
				hasS = true
			}
		}
		if !hasG || !hasS {
			t.Fatalf("witness missing a side: %v", tup.Prov)
		}
	}
	if len(j.Schema) != 5 {
		t.Fatalf("join schema = %v", j.Schema)
	}
}

func TestJoinThenProjectWhyProvenance(t *testing.T) {
	g := genes(t)
	s := studies(t)
	j, err := Join(g, s, "gene", "g")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Project(j, "study")
	if err != nil {
		t.Fatal(err)
	}
	// Study S1 is justified by brca1×S1-row, tp53h×S1-row, tp53m×S1-row.
	ws, err := WhyProvenance(p, "study", "S1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("S1 witnesses = %d, want 3 (%v)", len(ws), ws)
	}
	for _, w := range ws {
		if len(w) != 2 {
			t.Fatalf("witness size = %v", w)
		}
	}
}

func TestUnionMergesAlternatives(t *testing.T) {
	a, _ := NewRelation("a", []string{"x"}, [][]Val{{"k"}})
	b, _ := NewRelation("b", []string{"x"}, [][]Val{{"k"}, {"other"}})
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Fatalf("union size = %d", u.Len())
	}
	ws, _ := WhyProvenance(u, "x", "k")
	if len(ws) != 2 { // a:0 and b:0 are each sufficient
		t.Fatalf("k witnesses = %v", ws)
	}
}

func TestUnionSchemaMismatch(t *testing.T) {
	a, _ := NewRelation("a", []string{"x"}, nil)
	b, _ := NewRelation("b", []string{"y"}, nil)
	if _, err := Union(a, b); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestGroupByAggregates(t *testing.T) {
	r := genes(t)
	for _, tc := range []struct {
		agg  AggFunc
		col  string
		want map[string]float64
	}{
		{AggCount, "", map[string]float64{"human": 3, "mouse": 2}},
		{AggSum, "score", map[string]float64{"human": 274, "mouse": 150}},
		{AggMin, "score", map[string]float64{"human": 85, "mouse": 70}},
		{AggMax, "score", map[string]float64{"human": 99, "mouse": 80}},
		{AggAvg, "score", map[string]float64{"human": 274.0 / 3, "mouse": 75}},
	} {
		g, err := GroupBy(r, "organism", tc.agg, tc.col)
		if err != nil {
			t.Fatalf("%s: %v", tc.agg, err)
		}
		if g.Len() != 2 {
			t.Fatalf("%s: groups = %d", tc.agg, g.Len())
		}
		for _, tup := range g.Tuples {
			key := tup.Values[0].(string)
			got, err := toFloat(tup.Values[1])
			if err != nil {
				t.Fatal(err)
			}
			if diff := got - tc.want[key]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s[%s] = %v, want %v", tc.agg, key, got, tc.want[key])
			}
		}
	}
}

func TestGroupByProvenanceCoversGroup(t *testing.T) {
	r := genes(t)
	g, err := GroupBy(r, "organism", AggCount, "")
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := WhyProvenance(g, "organism", "human")
	ids := AllBaseTuples(ws)
	if len(ids) != 3 {
		t.Fatalf("human group witnesses cover %d base tuples, want 3", len(ids))
	}
}

func TestGroupByNonNumeric(t *testing.T) {
	r := genes(t)
	if _, err := GroupBy(r, "organism", AggSum, "gene"); err == nil {
		t.Fatal("sum over string column accepted")
	}
}

func TestSortStable(t *testing.T) {
	r := genes(t)
	it, err := StreamSortBy(newScan(r), "score", func(a, b Val) bool { return compareVals(a, b) < 0 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := materialize(it, "sorted")
	if err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	for _, tup := range s.Tuples {
		v := tup.Values[2].(int64)
		if v < last {
			t.Fatalf("not sorted: %v after %v", v, last)
		}
		last = v
	}
	// Original unchanged.
	if r.Tuples[0].Values[0] != "brca1" {
		t.Fatal("sorting mutated the input")
	}
}

func TestOperatorsDoNotMutateInputs(t *testing.T) {
	r := genes(t)
	before := r.String()
	pred, _ := Eq(r, "organism", "human")
	_ = Select(r, pred)
	_, _ = Project(r, "gene")
	_, _ = GroupBy(r, "organism", AggCount, "")
	s := studies(t)
	_, _ = Join(r, s, "gene", "g")
	if r.String() != before {
		t.Fatal("operators mutated input relation")
	}
}

func TestWitnessNormalization(t *testing.T) {
	w := Witness{"b", "a", "b"}.normalize()
	if len(w) != 2 || w[0] != "a" || w[1] != "b" {
		t.Fatalf("normalized = %v", w)
	}
}

// Property: selection then projection commutes with projection then
// selection when the predicate only touches projected columns.
func TestQuickSelectProjectCommute(t *testing.T) {
	f := func(rows []uint8) bool {
		vals := make([][]Val, 0, len(rows))
		for i, b := range rows {
			vals = append(vals, []Val{int64(b % 4), int64(i)})
		}
		r, err := NewRelation("r", []string{"k", "v"}, vals)
		if err != nil {
			return false
		}
		pred := func(vs []Val) bool { return vs[0].(int64) == 1 }
		p1, err := Project(Select(r, pred), "k")
		if err != nil {
			return false
		}
		p2pre, err := Project(r, "k")
		if err != nil {
			return false
		}
		p2 := Select(p2pre, pred)
		if p1.Len() != p2.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every witness of a join output references at least one base
// tuple from each input relation.
func TestQuickJoinWitnessStructure(t *testing.T) {
	f := func(av, bv []uint8) bool {
		avals := make([][]Val, 0, len(av))
		for i, b := range av {
			avals = append(avals, []Val{int64(b % 3), int64(i)})
		}
		bvals := make([][]Val, 0, len(bv))
		for i, b := range bv {
			bvals = append(bvals, []Val{int64(b % 3), int64(100 + i)})
		}
		a, err := NewRelation("a", []string{"k", "x"}, avals)
		if err != nil {
			return false
		}
		bb, err := NewRelation("b", []string{"k", "y"}, bvals)
		if err != nil {
			return false
		}
		j, err := Join(a, bb, "k", "k")
		if err != nil {
			return false
		}
		for _, tup := range j.Tuples {
			for _, w := range tup.Prov {
				hasA, hasB := false, false
				for _, id := range w {
					if strings.HasPrefix(string(id), "a:") {
						hasA = true
					}
					if strings.HasPrefix(string(id), "b:") {
						hasB = true
					}
				}
				if !hasA || !hasB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	r := genes(t)
	s := r.String()
	if !strings.Contains(s, "genes(gene, organism, score)") || !strings.Contains(s, "why=") {
		t.Fatalf("rendering:\n%s", s)
	}
}
