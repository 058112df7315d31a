package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/workloads"
)

// openAll returns one fresh store per backend.
func openAll(t *testing.T) []Store {
	t.Helper()
	fs, err := OpenFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return []Store{NewMemStore(), NewRelStore(), NewTripleStore(), fs}
}

// expandOne is a one-ID Expand: id's neighbors in dir, and whether the
// store knows id.
func expandOne(s Store, id string, dir Direction) ([]string, bool, error) {
	adj, err := s.Expand([]string{id}, dir)
	ns, ok := adj[id]
	return ns, ok, err
}

// captureRun executes the Figure 1 workflow and returns its log plus the
// artifact ID of the rendered image and the run result.
func captureRun(t *testing.T) (*provenance.RunLog, string, *engine.Result) {
	t.Helper()
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 1})
	res, err := e.Run(context.Background(), workloads.MedicalImaging(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := col.Log(res.RunID)
	if err != nil {
		t.Fatal(err)
	}
	return log, res.Artifacts["render.image"], res
}

func TestConformance(t *testing.T) {
	log, imageArt, res := captureRun(t)
	for _, s := range openAll(t) {
		t.Run(s.Name(), func(t *testing.T) {
			defer s.Close()
			if err := s.PutRunLog(log); err != nil {
				t.Fatal(err)
			}
			// Duplicate rejected.
			if err := s.PutRunLog(log); err == nil {
				t.Fatal("duplicate run accepted")
			}
			// Round trip.
			got, err := s.RunLog(log.Run.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.Run.ID != log.Run.ID || len(got.Executions) != len(log.Executions) {
				t.Fatalf("round trip mismatch: %+v", got.Run)
			}
			runs, err := s.Runs()
			if err != nil || len(runs) != 1 || runs[0] != log.Run.ID {
				t.Fatalf("Runs = %v, %v", runs, err)
			}
			// Entity lookups; an unknown ID is neither kind.
			renderExec := log.ExecutionForModule("render")
			ents, err := s.Entities([]string{imageArt, renderExec.ID, "nope"})
			if err != nil {
				t.Fatal(err)
			}
			if a := ents[0].Artifact; a == nil || a.Type != workloads.TypeImage {
				t.Fatalf("artifact = %+v", ents[0])
			}
			if e := ents[1].Execution; e == nil || e.ModuleID != "render" {
				t.Fatalf("execution = %+v", ents[1])
			}
			if ents[2] != (Entity{}) {
				t.Fatalf("missing entity = %+v", ents[2])
			}
			// Navigation: one-ID Expand frontiers.
			nav := func(id string, dir Direction) []string {
				t.Helper()
				ns, ok, err := expandOne(s, id, dir)
				if err != nil || !ok {
					t.Fatalf("Expand([%s], %v): known=%v, %v", id, dir, ok, err)
				}
				return ns
			}
			if gen := nav(imageArt, Up); len(gen) != 1 || gen[0] != renderExec.ID {
				t.Fatalf("generator = %v, want [%s]", gen, renderExec.ID)
			}
			gridArt := res.Artifacts["reader.data"]
			if consumers := nav(gridArt, Down); len(consumers) != 2 {
				t.Fatalf("consumers = %v", consumers)
			}
			if used := nav(renderExec.ID, Up); len(used) != 1 || used[0] != res.Artifacts["contour.surface"] {
				t.Fatalf("used = %v", used)
			}
			if generated := nav(renderExec.ID, Down); len(generated) != 1 || generated[0] != imageArt {
				t.Fatalf("generated = %v", generated)
			}
			if gen := nav(gridArt, Up); len(gen) != 1 {
				t.Fatalf("grid generator (reader) = %v", gen)
			}
			// Not-found paths.
			if _, err := s.RunLog("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing run err = %v", err)
			}
			// Stats plausible.
			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Runs != 1 || st.Executions != 4 || st.Artifacts != 5 || st.Bytes <= 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestLineageAndDependentsAgreeAcrossBackends(t *testing.T) {
	log, imageArt, res := captureRun(t)
	var want []string
	for _, s := range openAll(t) {
		if err := s.PutRunLog(log); err != nil {
			t.Fatal(err)
		}
		lin, err := Lineage(s, imageArt)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if want == nil {
			want = lin
			// image <- render <- surface <- contour <- grid <- reader.
			if len(lin) != 5 {
				t.Fatalf("lineage size = %d (%v)", len(lin), lin)
			}
		} else if fmt.Sprint(lin) != fmt.Sprint(want) {
			t.Fatalf("%s lineage = %v, want %v", s.Name(), lin, want)
		}
		deps, err := s.Closure(res.Artifacts["reader.data"], Down)
		if err != nil {
			t.Fatal(err)
		}
		// grid -> {histogram, contour} -> {plot, hist, surface} -> render -> image: 7.
		if len(deps) != 7 {
			t.Fatalf("%s dependents = %v", s.Name(), deps)
		}
		s.Close()
	}
}

func TestLineageUnknownEntity(t *testing.T) {
	s := NewMemStore()
	if _, err := Lineage(s, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestMultipleRuns(t *testing.T) {
	logA, _, _ := captureRun(t)
	logB, _, _ := captureRun(t)
	for _, s := range openAll(t) {
		if err := s.PutRunLog(logA); err != nil {
			t.Fatal(err)
		}
		if err := s.PutRunLog(logB); err != nil {
			t.Fatal(err)
		}
		runs, _ := s.Runs()
		if len(runs) != 2 || runs[0] != logA.Run.ID || runs[1] != logB.Run.ID {
			t.Fatalf("%s runs = %v", s.Name(), runs)
		}
		st, _ := s.Stats()
		if st.Runs != 2 || st.Executions != 8 {
			t.Fatalf("%s stats = %+v", s.Name(), st)
		}
		s.Close()
	}
}

func TestFileStoreReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	log, imageArt, _ := captureRun(t)
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: index rebuilt from the log file.
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.RunLog(log.Run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(log.Events) {
		t.Fatal("events lost through reopen")
	}
	if gen, _, err := expandOne(s2, imageArt, Up); err != nil || len(gen) != 1 {
		t.Fatalf("navigation after reopen: %v, %v", gen, err)
	}
}

func TestFileStoreTruncatesTornRecord(t *testing.T) {
	dir := t.TempDir()
	log, _, _ := captureRun(t)
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append: write a partial record with no newline.
	path := filepath.Join(dir, LogFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"run":{"id":"torn-run"`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	runs, _ := s2.Runs()
	if len(runs) != 1 || runs[0] != log.Run.ID {
		t.Fatalf("recovered runs = %v", runs)
	}
	// The torn bytes are gone: appending works again.
	log2, _, _ := captureRun(t)
	if err := s2.PutRunLog(log2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Runs(); len(got) != 2 {
		t.Fatalf("runs after re-append = %v", got)
	}
}

func TestFileStoreCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LogFileName)
	if err := os.WriteFile(path, []byte("this is not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("open over corrupt log: %v", err)
	}
	defer s.Close()
	runs, _ := s.Runs()
	if len(runs) != 0 {
		t.Fatalf("corrupt log yielded runs: %v", runs)
	}
}

func TestFileStoreReopenRebuildsAdjacencyIndex(t *testing.T) {
	dir := t.TempDir()
	log, imageArt, _ := captureRun(t)
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	wantLin, err := s.Closure(imageArt, Up)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopen: the resident adjacency index is rebuilt from the log, so
	// batch traversal answers identically.
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	lin, err := s2.Closure(imageArt, Up)
	if err != nil {
		t.Fatalf("closure after reopen: %v", err)
	}
	if fmt.Sprint(lin) != fmt.Sprint(wantLin) {
		t.Fatalf("closure after reopen = %v, want %v", lin, wantLin)
	}
	adj, err := s2.Expand([]string{imageArt}, Up)
	if err != nil || len(adj[imageArt]) != 1 {
		t.Fatalf("expand after reopen = %v, %v", adj, err)
	}
}

func TestFileStoreTornRecordDroppedFromAdjacencyIndex(t *testing.T) {
	dir := t.TempDir()
	log, imageArt, _ := captureRun(t)
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	wantLin, err := s.Closure(imageArt, Up)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a crash mid-append of a second run that mentions new
	// entities: crash recovery must truncate the torn bytes and keep them
	// out of the rebuilt adjacency index.
	path := filepath.Join(dir, LogFileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"run":{"id":"torn-run"},"artifacts":[{"id":"torn-art"}],` +
		`"executions":[{"id":"torn-exec"}],"events":[{"kind":"artifactGenerated","execution":"torn-exec","artifact":"torn-art"`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	// Surviving run's closure is intact.
	lin, err := s2.Closure(imageArt, Up)
	if err != nil || fmt.Sprint(lin) != fmt.Sprint(wantLin) {
		t.Fatalf("closure after recovery = %v, %v; want %v", lin, err, wantLin)
	}
	// Torn entities never reached the index.
	if _, err := s2.Closure("torn-art", Up); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn artifact in index: err = %v", err)
	}
	for _, dir := range []Direction{Up, Down} {
		if adj, err := s2.Expand([]string{"torn-art", "torn-exec"}, dir); err != nil || len(adj) != 0 {
			t.Fatalf("torn entities expanded %v: %v, %v", dir, adj, err)
		}
	}
}

// TestExpandArtifactClassificationWins pins the conformance corner the
// randomized property test cannot generate: an ID stored as an artifact by
// one run and as an execution by another (per-run validation accepts
// both). Every backend must classify it artifact-first: X has no generator
// and one consumer, where as an execution it would have used nothing and
// generated b1.
func TestExpandArtifactClassificationWins(t *testing.T) {
	logA := &provenance.RunLog{
		Run:       provenance.Run{ID: "ra"},
		Artifacts: []*provenance.Artifact{{ID: "X", RunID: "ra"}, {ID: "a2", RunID: "ra"}},
		Executions: []*provenance.Execution{
			{ID: "ea", RunID: "ra"},
		},
		Events: []provenance.Event{
			{Seq: 1, Kind: provenance.EventArtifactUsed, ExecutionID: "ea", ArtifactID: "X"},
			{Seq: 2, Kind: provenance.EventArtifactGen, ExecutionID: "ea", ArtifactID: "a2"},
		},
	}
	logB := &provenance.RunLog{
		Run:        provenance.Run{ID: "rb"},
		Artifacts:  []*provenance.Artifact{{ID: "b1", RunID: "rb"}},
		Executions: []*provenance.Execution{{ID: "X", RunID: "rb"}},
		Events: []provenance.Event{
			{Seq: 1, Kind: provenance.EventArtifactGen, ExecutionID: "X", ArtifactID: "b1"},
		},
	}
	for _, s := range openAll(t) {
		for _, l := range []*provenance.RunLog{logA, logB} {
			if err := s.PutRunLog(l); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
		for dir, want := range map[Direction]string{Up: "map[X:[]]", Down: "map[X:[ea]]"} {
			got, err := s.Expand([]string{"X"}, dir)
			if err != nil || fmt.Sprint(got) != want {
				t.Fatalf("%s %v: Expand = %v, %v; want %s", s.Name(), dir, got, err, want)
			}
		}
		s.Close()
	}
}

func TestTripleStoreMatch(t *testing.T) {
	log, imageArt, res := captureRun(t)
	s := NewTripleStore()
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	// (exec, generated, image).
	renderExec := log.ExecutionForModule("render")
	ts := s.Match("", PredGenerated, imageArt)
	if len(ts) != 1 || ts[0].S != renderExec.ID {
		t.Fatalf("match = %v", ts)
	}
	// All uses of the grid artifact.
	uses := s.Match("", PredUsed, res.Artifacts["reader.data"])
	if len(uses) != 2 {
		t.Fatalf("grid uses = %v", uses)
	}
	// Wildcard subject+predicate.
	all := s.Match("", "", "")
	if len(all) != s.TripleCount() {
		t.Fatalf("full scan = %d, count = %d", len(all), s.TripleCount())
	}
	// Subject-only.
	sub := s.Match(renderExec.ID, "", "")
	if len(sub) < 4 {
		t.Fatalf("subject scan = %v", sub)
	}
}

func TestRelStoreTablesExposed(t *testing.T) {
	log, _, _ := captureRun(t)
	s := NewRelStore()
	if err := s.PutRunLog(log); err != nil {
		t.Fatal(err)
	}
	tables := s.Tables()
	for _, name := range []string{"runs", "executions", "artifacts", "uses", "gens", "annotations"} {
		if tables[name] == nil {
			t.Fatalf("table %q missing", name)
		}
	}
	if tables["executions"].Len() != 4 {
		t.Fatalf("executions table = %d rows", tables["executions"].Len())
	}
	// Reader has no inputs; histogram and contour use the grid, render uses
	// the surface: 3 use records.
	if tables["uses"].Len() != 3 {
		t.Fatalf("uses table = %d rows", tables["uses"].Len())
	}
}

func TestPutInvalidLogRejected(t *testing.T) {
	bad := &provenance.RunLog{Run: provenance.Run{ID: "r"}}
	bad.Executions = []*provenance.Execution{{ID: "e"}, {ID: "e"}}
	for _, s := range openAll(t) {
		if err := s.PutRunLog(bad); err == nil {
			t.Fatalf("%s accepted invalid log", s.Name())
		}
		s.Close()
	}
}

// hasArtifact reports, through a one-ID Entities call, whether id names a
// stored artifact: nil if it does, ErrNotFound if not.
func hasArtifact(s Store, id string) error {
	ents, err := s.Entities([]string{id})
	if err == nil && ents[0].Artifact == nil {
		err = fmt.Errorf("%w: artifact %q", ErrNotFound, id)
	}
	return err
}
