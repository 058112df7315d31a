package survey

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workloads"
)

func tripleStore(t *testing.T) (*store.TripleStore, *engine.Result) {
	t.Helper()
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 1, Agent: "juliana"})
	res, err := e.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := col.Log(res.RunID)
	ts := store.NewTripleStore()
	if err := ts.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	return ts, res
}

func TestParseBasic(t *testing.T) {
	q, err := parseSPARQL(`SELECT ?x ?m WHERE { ?x prov:module ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0] != "x" {
		t.Fatalf("select = %v", q.Select)
	}
	if len(q.Patterns) != 1 || !q.Patterns[0].S.isVar || q.Patterns[0].P.value != "prov:module" {
		t.Fatalf("patterns = %+v", q.Patterns)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`WHERE { ?x ?y ?z }`,
		`SELECT WHERE { ?x ?y ?z }`,
		`SELECT ?x WHERE { }`,
		`SELECT ?x { ?x ?y ?z }`,
		`SELECT ?x WHERE { ?x prov:module }`,
		`SELECT ?zz WHERE { ?x prov:module ?m . }`, // unused select var
		`SELECT ?x WHERE { ?x <unterminated ?y }`,
	}
	for _, src := range bad {
		if _, err := parseSPARQL(src); err == nil {
			t.Fatalf("parsed invalid query %q", src)
		}
	}
}

func TestSingleBoundPattern(t *testing.T) {
	ts, res := tripleStore(t)
	q := fmt.Sprintf(`SELECT ?e WHERE { ?e prov:generated <%s> . }`, res.Artifacts["render.image"])
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestJoinOnSharedVariable(t *testing.T) {
	ts, res := tripleStore(t)
	// Which module generated each image-typed artifact?
	q := `SELECT ?mod ?art WHERE {
		?art prov:artifactType "image" .
		?e prov:generated ?art .
		?e prov:module ?mod .
	}`
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	// histogram.plot and render.image are both "image".
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	mods := map[string]bool{}
	for _, row := range r.Rows {
		mods[row[0]] = true
	}
	if !mods["histogram"] || !mods["render"] {
		t.Fatalf("modules = %v", mods)
	}
	_ = res
}

func TestTwoHopLineagePattern(t *testing.T) {
	ts, res := tripleStore(t)
	// exec used artifact that was generated by exec2 of module "contour":
	// finds render (used surface, generated by contour).
	q := `SELECT ?consumer WHERE {
		?e1 prov:module "contour" .
		?e1 prov:generated ?a .
		?e2 prov:used ?a .
		?e2 prov:module ?consumer .
	}`
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "render" {
		t.Fatalf("rows = %v", r.Rows)
	}
	_ = res
}

func TestRepeatedVariableConsistency(t *testing.T) {
	ts, _ := tripleStore(t)
	// Self-join: executions that used an artifact they also generated
	// (none in a DAG run).
	q := `SELECT ?e WHERE { ?e prov:used ?a . ?e prov:generated ?a . }`
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestAgentQuery(t *testing.T) {
	ts, res := tripleStore(t)
	q := `SELECT ?r WHERE { ?r prov:agent "juliana" . }`
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != res.RunID {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestUnboundPredicateScan(t *testing.T) {
	ts, res := tripleStore(t)
	q := fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o . }`, res.Artifacts["render.image"])
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	// type, partOfRun, contentHash, artifactType = 4 triples.
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestNoMatches(t *testing.T) {
	ts, _ := tripleStore(t)
	r, err := RunSPARQL(ts, `SELECT ?x WHERE { ?x prov:module "nonexistent" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestDeduplication(t *testing.T) {
	ts, _ := tripleStore(t)
	// Projecting only the type of executions collapses to one row.
	q := `SELECT ?t WHERE { ?e rdf:type ?t . ?e prov:module ?m . }`
	r, err := RunSPARQL(ts, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0] != "Execution" {
		t.Fatalf("rows = %v", r.Rows)
	}
}
