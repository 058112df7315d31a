package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/provenance"
)

// sampleRuns is a spread of coordinates over every family.
func sampleRuns() []runRef {
	var refs []runRef
	for f := Chain; f < numFamilies; f++ {
		for _, stream := range []int{0, 3, seedStream} {
			for _, index := range []int{0, 1, 7, 250} {
				refs = append(refs, runRef{f, stream, index})
			}
		}
	}
	return refs
}

func marshalAll(t *testing.T, g Gen, refs []runRef) []byte {
	t.Helper()
	var all []byte
	for _, r := range refs {
		data, err := json.Marshal(g.Run(r.f, r.stream, r.index))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
		all = append(all, '\n')
	}
	return all
}

// TestGenDeterministic pins the marshalled bytes of a fixed set of runs to
// a digest computed in another process: anything that lets a clock, a
// counter or map iteration order reach the output breaks it.
func TestGenDeterministic(t *testing.T) {
	const want = "3b87997d2b0f99709498becdd8c5f971faeb2008deb5d397520da040604b4d52"
	refs := sampleRuns()
	first := marshalAll(t, NewGen(1), refs)
	if again := marshalAll(t, NewGen(1), refs); string(first) != string(again) {
		t.Fatal("the same (seed, family, stream, index) marshalled differently twice in one process")
	}
	sum := sha256.Sum256(first)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("marshalled run logs changed: digest %s, want %s", got, want)
	}
}

func TestGenSeedChangesEveryID(t *testing.T) {
	ids := func(seed uint64) map[string]bool {
		out := map[string]bool{}
		g := NewGen(seed)
		for _, r := range sampleRuns() {
			l := g.Run(r.f, r.stream, r.index)
			out[l.Run.ID] = true
			for _, e := range l.Executions {
				out[e.ID] = true
			}
			for _, a := range l.Artifacts {
				out[a.ID] = true
			}
		}
		return out
	}
	a, b := ids(1), ids(2)
	for id := range a {
		if b[id] {
			t.Fatalf("seeds 1 and 2 share entity %s", id)
		}
	}
}

func TestGenShapes(t *testing.T) {
	g := NewGen(7)
	for f, want := range map[Family]int{Chain: 1, Fanin: 1, Diamond: 8, FMRI: 15} {
		l := g.Run(f, 2, 5)
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		if len(l.Executions) != want {
			t.Errorf("%s: %d executions, want %d", f, len(l.Executions), want)
		}
	}
	used := 0
	for _, ev := range g.Run(Fanin, 0, 9).Events {
		if ev.Kind == provenance.EventArtifactUsed {
			used++
		}
	}
	if used != faninWidth {
		t.Errorf("fanin run consumes %d artifacts, want %d", used, faninWidth)
	}
}

// TestGenUnionIsADAG ingests, on paper, everything a write workload can
// produce — its seed plan and a long stretch of two publishers — and
// checks the provenance graph's own integrity constraints over the union:
// every log valid, one generator per artifact, no cycle.
func TestGenUnionIsADAG(t *testing.T) {
	w := findWorkload("ingest")
	e := &env{w: w, sz: w.quick, gen: NewGen(3)}
	refs := seedPlan(e.sz)
	for id := 0; id < 2; id++ {
		p := newPublisher(e, id, 2, 3)
		for k := 0; k < 400; k++ {
			refs = append(refs, p.nextRun())
		}
	}
	generator := map[string]string{} // artifact → execution
	up := map[string][]string{}      // entity → what it was derived from
	runs := map[string]bool{}
	for _, r := range refs {
		l := e.gen.Run(r.f, r.stream, r.index)
		if err := l.Validate(); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if runs[l.Run.ID] {
			t.Fatalf("run %s generated twice", l.Run.ID)
		}
		runs[l.Run.ID] = true
		for _, ev := range l.Events {
			switch ev.Kind {
			case provenance.EventArtifactGen:
				if prev, ok := generator[ev.ArtifactID]; ok && prev != ev.ExecutionID {
					t.Fatalf("artifact %s generated by %s and %s", ev.ArtifactID, prev, ev.ExecutionID)
				}
				generator[ev.ArtifactID] = ev.ExecutionID
				up[ev.ArtifactID] = append(up[ev.ArtifactID], ev.ExecutionID)
			case provenance.EventArtifactUsed:
				up[ev.ExecutionID] = append(up[ev.ExecutionID], ev.ArtifactID)
			}
		}
	}
	// Fan-in edges must land on artifacts some seeded chain run generates.
	for _, ev := range e.gen.Run(Fanin, 0, 0).Events {
		if ev.Kind == provenance.EventArtifactUsed && generator[ev.ArtifactID] == "" {
			t.Errorf("fanin input %s has no generator in the union", ev.ArtifactID)
		}
	}
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var visit func(id string, path []string)
	visit = func(id string, path []string) {
		switch state[id] {
		case done:
			return
		case visiting:
			t.Fatalf("cycle: %s", strings.Join(append(path, id), " <- "))
		}
		state[id] = visiting
		for _, n := range up[id] {
			visit(n, append(path, id))
		}
		state[id] = done
	}
	for id := range up {
		visit(id, nil)
	}
}
