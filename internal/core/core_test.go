package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workloads"
)

func newSystem(t *testing.T, opt Options) *System {
	t.Helper()
	s := NewSystem(opt)
	workloads.RegisterAll(s.Registry)
	return s
}

func TestRunPersistsLog(t *testing.T) {
	s := newSystem(t, Options{Agent: "juliana"})
	res, log, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != provenance.StatusOK {
		t.Fatalf("status = %s", res.Status)
	}
	stored, err := s.Store.RunLog(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored.Events) != len(log.Events) {
		t.Fatal("stored log differs")
	}
	if _, err := s.WorkflowOf(res.RunID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WorkflowOf("ghost"); err == nil {
		t.Fatal("unknown run resolved")
	}
}

func TestLineageAndInvalidation(t *testing.T) {
	s := newSystem(t, Options{})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := s.Lineage(res.Artifacts["render.image"])
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 5 {
		t.Fatalf("lineage = %v", lin)
	}
	inv, err := s.InvalidatedArtifacts(res.Artifacts["reader.data"])
	if err != nil {
		t.Fatal(err)
	}
	// plot, hist, surface, image.
	if len(inv) != 4 {
		t.Fatalf("invalidated = %v", inv)
	}
}

func TestQueryFacades(t *testing.T) {
	s := newSystem(t, Options{})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := s.Query("SELECT module FROM executions WHERE moduleType = 'Render'")
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 1 || table.Rows[0][0] != "render" {
		t.Fatalf("pql rows = %v", table.Rows)
	}
	dres, err := s.DatalogQuery("ancestor('" + res.Artifacts["render.image"] + "', X)")
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Rows) != 5 {
		t.Fatalf("datalog rows = %v", dres.Rows)
	}
	if _, err := s.DatalogQuery("not an atom"); err == nil {
		t.Fatal("bad atom accepted")
	}
}

func TestVerifyReproducibility(t *testing.T) {
	s := newSystem(t, Options{Workers: 1})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyReproducibility(context.Background(), res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("not reproduced: %+v", rep.Diff)
	}
	if rep.ReplayRun == rep.OriginalRun {
		t.Fatal("replay did not create a new run")
	}
}

func TestReproductionRecipe(t *testing.T) {
	s := newSystem(t, Options{Workers: 1})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.ReproductionRecipe(res.RunID, res.Artifacts["render.image"])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r.ModuleIDs, ",") != "reader,contour,render" {
		t.Fatalf("recipe = %v", r.ModuleIDs)
	}
}

func TestExportOPM(t *testing.T) {
	s := newSystem(t, Options{Agent: "susan"})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.ExportOPM(res.RunID, "native")
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stat()
	if st.Processes != 4 || st.Agents != 1 {
		t.Fatalf("opm stats = %+v", st)
	}
}

func TestCacheAcrossRuns(t *testing.T) {
	s := newSystem(t, Options{EnableCache: true})
	wf := workloads.MedicalImaging()
	if _, _, err := s.Run(context.Background(), wf, nil); err != nil {
		t.Fatal(err)
	}
	res2, _, err := s.Run(context.Background(), wf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Cached) != 4 {
		t.Fatalf("cached = %v", res2.Cached)
	}
}

func TestFaultInjectionThroughSystem(t *testing.T) {
	s := newSystem(t, Options{Faults: map[string]string{"contour": "injected"}})
	res, log, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != provenance.StatusFailed {
		t.Fatal("fault not injected")
	}
	if log.ExecutionForModule("contour").Error != "injected" {
		t.Fatal("error message lost")
	}
}

func TestCustomStore(t *testing.T) {
	ts := store.NewTripleStore()
	s := newSystem(t, Options{Store: ts})
	if _, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil); err != nil {
		t.Fatal(err)
	}
	if ts.TripleCount() == 0 {
		t.Fatal("triple store not populated")
	}
}

func TestShardedSystem(t *testing.T) {
	s := newSystem(t, Options{Shards: 4, EnableClosureCache: true})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	single := newSystem(t, Options{})
	res2, _, err := single.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Lineage through the cache-wrapped sharded router has the same shape
	// as the unsharded system's on the same workflow (entity IDs are
	// per-collector, so compare sizes, not names).
	lin, err := s.Lineage(res.Artifacts["render.image"])
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Lineage(res2.Artifacts["render.image"])
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) == 0 || len(lin) != len(want) {
		t.Fatalf("sharded lineage has %d entities, want %d", len(lin), len(want))
	}
	// The cache serves the repeat query; answers must agree.
	again, err := s.Lineage(res.Artifacts["render.image"])
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(lin) {
		t.Fatalf("cached sharded lineage has %d entities, want %d", len(again), len(lin))
	}
}

// A shard count the router cannot serve is a flag-validation error, raised
// before the in-memory router is built with it.
func TestValidateRejectsTooManyShards(t *testing.T) {
	if err := (Options{Shards: 64}).ValidatePersistence(); err != nil {
		t.Fatalf("64 shards rejected: %v", err)
	}
	for _, opt := range []Options{{Shards: 65}, {Shards: 65, StoreDir: t.TempDir()}} {
		if err := opt.ValidatePersistence(); err == nil {
			t.Fatalf("%d shards (store dir %q) passed validation", opt.Shards, opt.StoreDir)
		}
	}
}

func TestAnnotateReachesCollector(t *testing.T) {
	s := newSystem(t, Options{})
	res, _, err := s.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Annotate(res.Artifacts["render.image"], provenance.KindArtifact, "note", "good result")
	log, _ := s.Collector.Log(res.RunID)
	found := false
	for _, a := range log.Annotations {
		if a.Key == "note" {
			found = true
		}
	}
	if !found {
		t.Fatal("annotation lost")
	}
}
