package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/collab/api"
	"repro/internal/query/scan"
	"repro/internal/store"
	"repro/internal/store/shardedstore"
)

// TestTracedStackIsTheSameProgram runs one fixed op list against the stack
// core.OpenPersistentStore assembles and against the traced stack with
// recording on, each over its own copy of the same seeded directory, and
// holds them to the same answers and the same work beneath the seams:
// router rounds and WAL fsyncs. It then checks what the layers above
// discover on a seam by type assertion.
func TestTracedStackIsTheSameProgram(t *testing.T) {
	w := findWorkload("mixed")
	type outcome struct {
		answers      [][]string
		rounds, sync float64
		status       *api.NodeStatus
	}
	run := func(tr *tracer) outcome {
		e, err := setUp(w, w.quick, 11, t.TempDir(), tr)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if tr != nil {
			tr.record(true)
		}
		var out outcome
		before := takeSnapshot(e.node)
		ph := &phase{tracer: tr}
		pub, rd := newPublisher(e, 0, 1, 11), newReader(e, 0, 11)
		rd.every = 1
		for i := 0; i < 12; i++ {
			pub.put(ph, runRef{Chain, i, e.sz.chainLen}, time.Time{})
			pub.put(ph, runRef{Fanin, 0, i}, time.Time{})
			rd.closure(ph, e.gen.ChainHead(i), store.Down)              // warm: patched by the put above
			rd.closure(ph, e.gen.ChainTail(i, e.sz.chainLen), store.Up) // cold: router rounds
			rd.expand(ph)
		}
		if pub.failed+rd.failed != 0 || len(pub.acked) != 24 || len(rd.samples) != 36 {
			t.Fatalf("op list: %d puts acknowledged, %d reads answered, first error %v", len(pub.acked), len(rd.samples), rd.firstErr)
		}
		for _, s := range rd.samples {
			flat := s.answer
			for id, ns := range s.adj {
				flat = append(flat, id+"="+strings.Join(ns, ","))
			}
			sort.Strings(flat)
			out.answers = append(out.answers, flat)
		}
		after := takeSnapshot(e.node)
		out.rounds = delta(before, after, "prov_router_closure_rounds_sum")
		out.sync = delta(before, after, "prov_wal_fsyncs_total")
		if out.status, err = api.NewClient(e.node.url, nil).NodeStatus(); err != nil {
			t.Fatal(err)
		}

		if _, ok := scan.Unwrap(e.node.top).(*shardedstore.Router); !ok {
			t.Errorf("scan.Unwrap reaches %T, want the router", scan.Unwrap(e.node.top))
		}
		if ck, ok := e.node.top.(store.Checkpointer); !ok {
			t.Errorf("the top of the stack is no store.Checkpointer")
		} else if err := ck.Checkpoint(); err != nil {
			t.Errorf("checkpoint through the stack: %v", err)
		} else if _, ok := e.node.files[0].LastCheckpoint(); !ok {
			t.Errorf("checkpoint through the stack reached no shard")
		}
		return out
	}

	plain, tr := run(nil), newTracer()
	traced := run(tr)
	if !reflect.DeepEqual(plain.answers, traced.answers) {
		t.Errorf("the traced stack answered differently")
	}
	if plain.rounds == 0 || plain.rounds != traced.rounds {
		t.Errorf("router rounds: %v untraced, %v traced", plain.rounds, traced.rounds)
	}
	if plain.sync == 0 || plain.sync != traced.sync {
		t.Errorf("WAL fsyncs: %v untraced, %v traced", plain.sync, traced.sync)
	}
	// What `provd -role primary -shards 4 -cache -durability group -store DIR` reports.
	for _, s := range []*api.NodeStatus{plain.status, traced.status} {
		if s.Role != api.RolePrimary || s.Shards != 4 || !s.ClosureCache || s.Durability != "group" || s.Epoch != 1 {
			t.Errorf("/v1/status: role=%s shards=%d cache=%v durability=%s epoch=%d", s.Role, s.Shards, s.ClosureCache, s.Durability, s.Epoch)
		}
	}

	// Every client span found its handler span and the store seams beneath.
	spans := tr.link()
	perLevel := map[uint8]int{}
	for _, s := range spans {
		if s.op != 0 && (s.level == levelClient || s.parent >= 0) {
			perLevel[s.level]++
		}
	}
	if perLevel[levelClient] != 60 || perLevel[levelHandler] != 36 || perLevel[levelTap] != 60 || perLevel[levelCache] != 60 {
		t.Errorf("linked spans per level: %v", perLevel)
	}
	if perLevel[levelStore] < 36 { // 24 puts and at least the 12 cold closures
		t.Errorf("only %d store-seam spans were linked", perLevel[levelStore])
	}
}

// TestSeamForwardsCapabilities: a seam answers to the triple-matcher
// methods exactly when the store beneath it does.
func TestSeamForwardsCapabilities(t *testing.T) {
	tr := newTracer()
	if _, ok := tr.seam(levelStore, store.NewMemStore()).(tripleMatcher); ok {
		t.Errorf("a seam over a MemStore grew a triple matcher")
	}
	ts := store.NewTripleStore()
	if err := ts.PutRunLog(NewGen(1).Run(Diamond, 0, 0)); err != nil {
		t.Fatal(err)
	}
	s, ok := tr.seam(levelStore, ts).(tripleMatcher)
	if !ok {
		t.Fatalf("a seam over a TripleStore lost the triple matcher")
	}
	if got, want := s.Match("", store.PredType, "Run"), ts.Match("", store.PredType, "Run"); len(got) != 1 || !reflect.DeepEqual(got, want) {
		t.Errorf("Match through the seam: %v, want %v", got, want)
	}
	if u, ok := tr.seam(levelStore, ts).(interface{ Underlying() store.Store }); !ok || u.Underlying() != store.Store(ts) {
		t.Errorf("Underlying does not return the wrapped store")
	}
}
