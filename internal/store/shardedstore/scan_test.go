package shardedstore

import (
	"reflect"
	"testing"

	"repro/internal/provenance"
	"repro/internal/store"
)

// scanIDs collects the run IDs a router scan emits from the skip-th run.
func scanIDs(t *testing.T, r *Router, skip int) []string {
	t.Helper()
	ids := []string{}
	if err := r.ScanLogs(skip, func(l *provenance.RunLog) error {
		ids = append(ids, l.Run.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestScanLogsFollowsAcceptedOrderAcrossInversions pins the merge on the
// one case where a shard's log order and the router's accepted order
// disagree: two concurrent ingests to one shard can reach the router's
// index out of commit order. The scan must still follow the accepted
// order, from any starting run, including a start that falls between the
// two inverted runs; so must a row scan, which parks shard rows the same
// way.
func TestScanLogsFollowsAcceptedOrderAcrossInversions(t *testing.T) {
	r, err := OpenWith(t.TempDir(), 2, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	logs := synthLogs(3, 24)
	for _, l := range logs {
		if err := r.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	// Invert every adjacent same-shard pair of the accepted order, as racing
	// writers would have left it.
	inverted := 0
	for i := 0; i+1 < len(r.order); i += 2 {
		if r.runShard[r.order[i]] == r.runShard[r.order[i+1]] {
			r.order[i], r.order[i+1] = r.order[i+1], r.order[i]
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("no same-shard neighbours to invert; pick another seed")
	}
	want, _ := r.Runs()
	for skip := 0; skip <= len(want); skip++ {
		if got := scanIDs(t, r, skip); !reflect.DeepEqual(got, want[skip:]) {
			t.Fatalf("scan from run %d:\n got %v\nwant %v", skip, got, want[skip:])
		}
	}
	rows := []string{}
	if err := r.ScanRows(func(rr *store.RunRows) error {
		rows = append(rows, rr.Run.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("row scan:\n got %v\nwant %v", rows, want)
	}
}

// TestEntitiesMatchesPerIDReads checks the router's batch fetch against a
// MemStore holding the same runs, over file-backed and resident shards,
// including entities declared on several shards and unknown IDs.
func TestEntitiesMatchesPerIDReads(t *testing.T) {
	file, err := OpenWith(t.TempDir(), 3, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	logs := synthLogs(11, 30)
	ids := append(entitiesOf(logs), "no-such-entity", logs[0].Run.ID)
	ref := store.NewMemStore()
	for _, l := range logs {
		if err := ref.PutRunLog(l); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Entities(ids)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Router{"file": file, "mem": NewMem(3)} {
		for _, l := range logs {
			if err := r.PutRunLog(l); err != nil {
				t.Fatal(err)
			}
		}
		ents, err := r.Entities(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if !reflect.DeepEqual(ents[i], want[i]) {
				t.Fatalf("%s: Entities[%s] = %+v, MemStore says %+v", name, id, ents[i], want[i])
			}
		}
	}
}
