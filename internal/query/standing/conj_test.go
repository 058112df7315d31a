package standing

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestConjunctiveRulesOfOneProgram: conjunctive subscriptions are rules of
// the manager's one Datalog program, loaded at the first of them and never
// before; identical queries share one rule, so a second subscriber to a
// query makes an ingest bind no more plans; the last unsubscribe from a
// query retires its rule and head facts.
func TestConjunctiveRulesOfOneProgram(t *testing.T) {
	st := store.NewMemStore()
	defer st.Close()
	m := NewManager(st, Options{})
	tap := NewTap(st, m)
	if err := tap.PutRunLog(link("r0", "", "a0")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe(Spec{Kind: KindClosure, Root: "a0", Dir: store.Down}); err != nil {
		t.Fatal(err)
	}
	if err := tap.PutRunLog(link("r1", "a0", "a1")); err != nil {
		t.Fatal(err)
	}
	if m.prog != nil {
		t.Fatal("the program was loaded without a conjunctive subscription")
	}

	plans := obs.Default().Counter("prov_exec_plans_total", "Conjunctive query plans compiled.")
	joined := Spec{Kind: KindConjunctive, Query: "used(E, A), generated(E, B)", Output: []string{"A", "B"}}
	ingest := func(i int) uint64 {
		t.Helper()
		before := plans.Value()
		if err := tap.PutRunLog(link(fmt.Sprintf("r%d", i), fmt.Sprintf("a%d", i-1), fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		return plans.Value() - before
	}

	first, err := m.Subscribe(joined)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(first.Items) != "[a0 a1]" {
		t.Fatalf("snapshot %v, want [a0 a1]", first.Items)
	}
	alone := ingest(2)
	second, err := m.Subscribe(joined)
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Subscribe(Spec{Kind: KindConjunctive, Query: "generated(E, A)"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.groups) != 2 {
		t.Fatalf("%d groups for two distinct queries", len(m.groups))
	}
	if got := ingest(3) - 1; got != alone { // minus the one-atom rule's plan
		t.Fatalf("a second identical subscription took an ingest from %d to %d plan binds", alone, got)
	}
	for _, id := range []string{first.ID, second.ID} {
		evs, _ := m.EventsSince(id, 0)
		if len(evs) == 0 || fmt.Sprint(evs[len(evs)-1].Items) != "[a2 a3]" {
			t.Fatalf("%s: events %+v, want a last add of [a2 a3]", id, evs)
		}
	}

	pred := m.subs[second.ID].group.pred
	m.Unsubscribe(first.ID)
	if m.prog.FactCount(pred) == 0 {
		t.Fatal("the rule was retired while a subscriber remained")
	}
	m.Unsubscribe(second.ID)
	if len(m.groups) != 1 || m.prog.FactCount(pred) != 0 {
		t.Fatalf("after the last unsubscribe: %d groups, %d head facts", len(m.groups), m.prog.FactCount(pred))
	}
	if alone := ingest(4); alone != 1 {
		t.Fatalf("with one one-atom rule left an ingest bound %d plans", alone)
	}
	if snap, _ := m.Snapshot(other.ID); len(snap.Items) != 5 {
		t.Fatalf("remaining subscription holds %v", snap.Items)
	}
}
