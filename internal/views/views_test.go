package views

import (
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

// chainLog runs a 6-module chain and returns the workflow and its log.
func chainLog(t *testing.T) (*workflow.Workflow, *provenance.RunLog) {
	t.Helper()
	wf := workloads.Chain(6)
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 1})
	res, err := e.Run(context.Background(), wf, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := col.Log(res.RunID)
	return wf, log
}

func TestGroupValidation(t *testing.T) {
	v := NewView("v")
	if err := v.Group("", "a"); err == nil {
		t.Fatal("empty group name accepted")
	}
	if err := v.Group("g1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := v.Group("g2", "a"); err == nil {
		t.Fatal("module in two groups accepted")
	}
	// Re-adding to the same group is idempotent.
	if err := v.Group("g1", "a"); err != nil {
		t.Fatal(err)
	}
	if got := v.Members("g1"); len(got) != 1 {
		t.Fatalf("members = %v", got)
	}
}

func TestApplyQuotient(t *testing.T) {
	wf, _ := chainLog(t)
	v := NewView("v")
	// Group the middle four of s00..s05.
	if err := v.Group("mid", "s01", "s02", "s03", "s04"); err != nil {
		t.Fatal(err)
	}
	aw, err := v.Apply(wf)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: s00, mid, s05.
	if aw.Graph.NumNodes() != 3 {
		t.Fatalf("abstract nodes = %d", aw.Graph.NumNodes())
	}
	if aw.Graph.NumEdges() != 2 {
		t.Fatalf("abstract edges = %d", aw.Graph.NumEdges())
	}
}

func TestApplyUnknownModule(t *testing.T) {
	wf, _ := chainLog(t)
	v := NewView("v")
	if err := v.Group("g", "ghost"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(wf); err == nil {
		t.Fatal("view over unknown module accepted")
	}
}

func TestUnsoundViewRejected(t *testing.T) {
	// Diamond: a -> b -> d, a -> c -> d. Grouping {a, d} while leaving b, c
	// out creates group->b->group and group->c->group cycles.
	wf := workloads.MedicalImaging() // reader -> contour -> render; reader -> histogram
	v := NewView("bad")
	if err := v.Group("g", "reader", "render"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(wf); err == nil || !strings.Contains(err.Error(), "unsound") {
		t.Fatalf("err = %v, want unsound", err)
	}
}

func TestAbstractProvenanceHidesInternalArtifacts(t *testing.T) {
	wf, log := chainLog(t)
	v := NewView("v")
	if err := v.Group("mid", "s01", "s02", "s03", "s04"); err != nil {
		t.Fatal(err)
	}
	ap, err := v.Abstract(log)
	if err != nil {
		t.Fatal(err)
	}
	// Concrete: 6 executions + 6 artifacts. Abstract: 3 composites +
	// boundary artifacts. Artifacts internal to mid: outputs of s01..s03
	// (each consumed within mid) = 3 hidden.
	if ap.HiddenArtifacts != 3 {
		t.Fatalf("hidden = %d", ap.HiddenArtifacts)
	}
	if !ap.Graph.IsDAG() {
		t.Fatal("abstract provenance cyclic")
	}
	_ = wf
}

func TestAbstractStoredMatchesAbstract(t *testing.T) {
	_, log := chainLog(t)
	v := NewView("v")
	if err := v.Group("mid", "s01", "s02", "s03", "s04"); err != nil {
		t.Fatal(err)
	}
	want, err := v.Abstract(log)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	backends := []store.Store{store.NewMemStore(), store.NewTripleStore(), fs}
	for _, s := range backends {
		if err := s.PutRunLog(log); err != nil {
			t.Fatal(err)
		}
		ap, err := v.AbstractStored(s, log.Run.ID)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if ap.HiddenArtifacts != want.HiddenArtifacts {
			t.Fatalf("%s: hidden = %d, want %d", s.Name(), ap.HiddenArtifacts, want.HiddenArtifacts)
		}
		if ap.Graph.NumNodes() != want.Graph.NumNodes() || ap.Graph.NumEdges() != want.Graph.NumEdges() {
			t.Fatalf("%s: graph %d/%d, want %d/%d", s.Name(),
				ap.Graph.NumNodes(), ap.Graph.NumEdges(), want.Graph.NumNodes(), want.Graph.NumEdges())
		}
		if !ap.Graph.IsDAG() {
			t.Fatalf("%s: abstract provenance cyclic", s.Name())
		}
	}
	if _, err := v.AbstractStored(store.NewMemStore(), "ghost-run"); err == nil {
		t.Fatal("unknown run accepted")
	}
}

func TestReductionFactor(t *testing.T) {
	_, log := chainLog(t)
	v := NewView("v")
	if err := v.Group("mid", "s01", "s02", "s03", "s04"); err != nil {
		t.Fatal(err)
	}
	r, err := v.Reduction(log)
	if err != nil {
		t.Fatal(err)
	}
	if r.ConcreteNodes != 12 {
		t.Fatalf("concrete = %d", r.ConcreteNodes)
	}
	if r.AbstractNodes >= r.ConcreteNodes {
		t.Fatalf("no reduction: %+v", r)
	}
	if r.Factor <= 1 {
		t.Fatalf("factor = %v", r.Factor)
	}
}

func TestIdentityViewNoReduction(t *testing.T) {
	_, log := chainLog(t)
	v := NewView("identity")
	r, err := v.Reduction(log)
	if err != nil {
		t.Fatal(err)
	}
	if r.ConcreteNodes != r.AbstractNodes || r.Hidden != 0 {
		t.Fatalf("identity view reduced: %+v", r)
	}
}

func TestAbstractPreservesCausalOrder(t *testing.T) {
	wf, log := chainLog(t)
	v := NewView("v")
	if err := v.Group("mid", "s01", "s02", "s03", "s04"); err != nil {
		t.Fatal(err)
	}
	ap, err := v.Abstract(log)
	if err != nil {
		t.Fatal(err)
	}
	// The composite must still sit causally between s00's output and s05.
	var s00exec, s05exec string
	for _, e := range log.Executions {
		switch e.ModuleID {
		case "s00":
			s00exec = "view:" + v.GroupOf("s00")
		case "s05":
			s05exec = "view:" + v.GroupOf("s05")
		}
	}
	reach := ap.Graph.Reachable(graph.NodeID(s00exec))
	if !reach[graph.NodeID("view:mid")] || !reach[graph.NodeID(s05exec)] {
		t.Fatalf("causal order lost: reach = %v", reach)
	}
	_ = wf
}

func TestAutoViewGenomics(t *testing.T) {
	wf := workloads.Genomics("s")
	// Scientist cares only about VariantCall.
	v, err := AutoView(wf, func(m *workflow.Module) bool { return m.Type == "VariantCall" })
	if err != nil {
		t.Fatal(err)
	}
	aw, err := v.Apply(wf)
	if err != nil {
		t.Fatal(err)
	}
	// gen-trim-align collapse into one composite; report is its own
	// composite; variants stays singleton: 3 abstract nodes.
	if aw.Graph.NumNodes() != 3 {
		t.Fatalf("abstract nodes = %d (%v)", aw.Graph.NumNodes(), aw.Graph.NodeIDs())
	}
}

func TestAutoViewAllRelevant(t *testing.T) {
	wf := workloads.Genomics("s")
	v, err := AutoView(wf, func(*workflow.Module) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	aw, err := v.Apply(wf)
	if err != nil {
		t.Fatal(err)
	}
	if aw.Graph.NumNodes() != len(wf.Modules) {
		t.Fatalf("abstract nodes = %d", aw.Graph.NumNodes())
	}
}

func TestAutoViewSoundOnDiamond(t *testing.T) {
	wf := workloads.MedicalImaging()
	// Nothing relevant: everything may merge, but merging must stay sound.
	v, err := AutoView(wf, func(*workflow.Module) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(wf); err != nil {
		t.Fatalf("auto view unsound: %v", err)
	}
}
