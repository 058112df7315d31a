package survey

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/workloads"
)

// runLayered executes a RandomLayered(seed, 4, 3, 2) workflow, the
// generated input of the store package's conformance properties.
func runLayered(t *testing.T, seed int64) *provenance.RunLog {
	t.Helper()
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 2})
	res, err := e.Run(context.Background(), workloads.RandomLayered(seed, 4, 3, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := col.Log(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// edgeRun builds a one-run log from use ("u") and generation ("g") edges,
// declaring each named execution and artifact once.
func edgeRun(id string, edges ...[3]string) *provenance.RunLog {
	l := &provenance.RunLog{Run: provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK}}
	seen := map[string]bool{}
	for _, e := range edges {
		kind, exec, art := provenance.EventArtifactUsed, e[1], e[2]
		if e[0] == "g" {
			kind = provenance.EventArtifactGen
		}
		if !seen["e:"+exec] {
			seen["e:"+exec] = true
			l.Executions = append(l.Executions, &provenance.Execution{ID: exec, RunID: id, ModuleID: "m", ModuleType: "T", Status: provenance.StatusOK})
		}
		if !seen["a:"+art] {
			seen["a:"+art] = true
			l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: art, RunID: id, Type: "blob"})
		}
		l.Events = append(l.Events, provenance.Event{Seq: uint64(len(l.Events) + 1), RunID: id, Kind: kind, ExecutionID: exec, ArtifactID: art})
	}
	return l
}

// edgeCases are the store conformance property's two fixed runs:
// "edge-raw" is an artifact no execution generates, and "edge-dual" is an
// artifact in edge-r1 and an execution in edge-r2.
func edgeCases() []*provenance.RunLog {
	return []*provenance.RunLog{
		edgeRun("edge-r1", [3]string{"u", "edge-e1", "edge-dual"}, [3]string{"u", "edge-e1", "edge-raw"}, [3]string{"g", "edge-e1", "edge-a1"}),
		edgeRun("edge-r2", [3]string{"u", "edge-dual", "edge-a1"}, [3]string{"g", "edge-dual", "edge-b1"}),
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

// RelStore against the MemStore oracle on the store conformance
// property's inputs: Expand of the whole graph as one frontier and of each
// ID alone, unknown IDs absent; Closure of every entity with the oracle's
// visit order, ErrNotFound for an unknown seed; in both directions.
func TestQuickRelStoreMatchesMemStore(t *testing.T) {
	f := func(seed int64) bool {
		logs := append([]*provenance.RunLog{runLayered(t, seed)}, edgeCases()...)
		rel, mem := NewRelStore(), store.NewMemStore()
		var entities []string
		seen := map[string]bool{}
		for _, l := range logs {
			if err := rel.PutRunLog(l); err != nil {
				t.Log(err)
				return false
			}
			if err := mem.PutRunLog(l); err != nil {
				t.Log(err)
				return false
			}
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
		for _, dir := range []store.Direction{store.Up, store.Down} {
			want, _ := mem.Expand(probe, dir)
			if _, ok := want["ghost-entity"]; ok {
				t.Logf("%v: oracle knows the ghost", dir)
				return false
			}
			got, err := rel.Expand(probe, dir)
			if err != nil || encodeAdj(got) != encodeAdj(want) {
				t.Logf("%v: Expand (%v):\n got %s\nwant %s", dir, err, encodeAdj(got), encodeAdj(want))
				return false
			}
			for _, id := range probe {
				want, _ := mem.Expand([]string{id}, dir)
				got, err := rel.Expand([]string{id}, dir)
				if err != nil || encodeAdj(got) != encodeAdj(want) {
					t.Logf("%v: Expand([%s]) = %s, %v; want %s", dir, id, encodeAdj(got), err, encodeAdj(want))
					return false
				}
			}
			for _, id := range entities {
				want, werr := mem.Closure(id, dir)
				got, gerr := rel.Closure(id, dir)
				if werr != nil || gerr != nil || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Logf("%v: Closure(%s) = %v, %v; want %v, %v", dir, id, got, gerr, want, werr)
					return false
				}
			}
			if _, err := rel.Closure("ghost-entity", dir); !errors.Is(err, store.ErrNotFound) {
				t.Logf("%v: ghost Closure err = %v", dir, err)
				return false
			}
		}
		// A stored run ID is refused, and the refusal stores nothing.
		before, _ := rel.Stats()
		if err := rel.PutRunLog(logs[0]); err == nil {
			t.Log("duplicate run accepted")
			return false
		}
		after, _ := rel.Stats()
		return after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// The base tables hold one row per declaration and per edge, and Stats
// counts them: the Figure 1 run has 4 executions and 3 uses (the reader
// has no inputs; histogram and contour use the grid, render the surface).
func TestRelStoreTables(t *testing.T) {
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 1})
	res, err := e.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log, _ := col.Log(res.RunID)
	s := NewRelStore()
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	if len(s.execRows) != 4 || len(s.useRows) != 3 || len(s.runRows) != 1 {
		t.Fatalf("rows: %d executions, %d uses, %d runs", len(s.execRows), len(s.useRows), len(s.runRows))
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Executions != 4 || st.Artifacts != len(log.Artifacts) || st.Events != len(log.Events) || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	bad := &provenance.RunLog{Run: provenance.Run{ID: "r"}}
	bad.Executions = []*provenance.Execution{{ID: "e"}, {ID: "e"}}
	if err := s.PutRunLog(bad); err == nil {
		t.Fatal("invalid log accepted")
	}
}
