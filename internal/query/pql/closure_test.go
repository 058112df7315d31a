package pql

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/store/closurecache"
	"repro/internal/store/shardedstore"
)

// fanRun is run i of a chain of wide links: one execution consumes every
// output of the previous run and generates width outputs.
func fanRun(i, width int) *provenance.RunLog {
	id := fmt.Sprintf("run-%03d", i)
	exec := id + "-exec"
	l := &provenance.RunLog{
		Run:        provenance.Run{ID: id, WorkflowID: "wf", Status: provenance.StatusOK},
		Executions: []*provenance.Execution{{ID: exec, RunID: id, ModuleID: fmt.Sprintf("m%d", i), ModuleType: "T", Status: provenance.StatusOK}},
	}
	seq := uint64(0)
	event := func(kind provenance.EventKind, art string) {
		seq++
		l.Events = append(l.Events, provenance.Event{Seq: seq, RunID: id, Kind: kind, ExecutionID: exec, ArtifactID: art})
	}
	for w := 0; w < width && i > 0; w++ {
		in := fmt.Sprintf("art-%03d-%d", i-1, w)
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: in, RunID: id, Type: fmt.Sprintf("t%d", w)})
		event(provenance.EventArtifactUsed, in)
	}
	for w := 0; w < width; w++ {
		out := fmt.Sprintf("art-%03d-%d", i, w)
		l.Artifacts = append(l.Artifacts, &provenance.Artifact{ID: out, RunID: id, Type: fmt.Sprintf("t%d", w)})
		event(provenance.EventArtifactGen, out)
	}
	return l
}

// TestClosureResultReadsEachOwningRunOnce gates the batch entity fetch
// behind LINEAGE OF / DEPENDENTS OF: over a file store and a 4-shard
// file-backed router (bare and under a closure cache) the answer equals
// the resident reference's, and the query loads no more records than the
// closure has distinct owning runs — it used to load one per member.
func TestClosureResultReadsEachOwningRunOnce(t *testing.T) {
	const runs, width = 12, 6
	ref := store.NewMemStore()
	file, err := store.OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	router, err := shardedstore.OpenWith(t.TempDir(), 4, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for i := 0; i < runs; i++ {
		for _, s := range []store.Store{ref, file, router} {
			if err := s.PutRunLog(fanRun(i, width)); err != nil {
				t.Fatal(err)
			}
		}
	}
	loads, ok := obs.Default().FindHistogram("prov_store_runlog_load_seconds")
	if !ok {
		t.Fatal("prov_store_runlog_load_seconds is not registered")
	}
	for _, q := range []string{
		fmt.Sprintf("LINEAGE OF 'art-%03d-3'", runs-1),
		"DEPENDENTS OF 'art-000-0'",
	} {
		want, err := Run(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		// A member's owning run is the last one that declared it, which is
		// the RunID of the record every backend returns for it.
		owners := map[string]bool{}
		for _, row := range want.Rows {
			ents, err := ref.Entities([]string{row[0]})
			if err != nil {
				t.Fatal(err)
			}
			if a := ents[0].Artifact; a != nil {
				owners[a.RunID] = true
			} else if e := ents[0].Execution; e != nil {
				owners[e.RunID] = true
			}
		}
		if len(want.Rows) < 3*len(owners) {
			t.Fatalf("%s: %d members over %d owning runs cannot tell per-member from per-run loads", q, len(want.Rows), len(owners))
		}
		for name, s := range map[string]store.Store{
			"file":              file,
			"router":            router,
			"cache over router": closurecache.New(router, closurecache.Options{}),
		} {
			before := loads.Snapshot().Count
			got, err := Run(s, q)
			if err != nil {
				t.Fatal(err)
			}
			n := loads.Snapshot().Count - before
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s:\n got %v\nwant %v", q, name, got.Rows, want.Rows)
			}
			if n == 0 || n > uint64(len(owners)) {
				t.Fatalf("%s on %s: %d record loads for %d members over %d owning runs", q, name, n, len(got.Rows), len(owners))
			}
		}
	}
}
