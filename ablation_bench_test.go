package repro

// Ablation benchmarks for the design choices DESIGN.md commits to:
// parallel scheduling, content hashing as artifact identity, witness-set
// provenance in relational operators, and per-run-log vs indexed stores.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/views"
	"repro/internal/workloads"
)

// BenchmarkAblationWorkers quantifies the parallel scheduler: a wide
// random workflow (6 layers × 8 modules, fanin 2, compute-bound stages)
// under increasing worker counts.
func BenchmarkAblationWorkers(b *testing.B) {
	wf := workloads.RandomLayered(5, 6, 8, 2)
	for _, m := range wf.Modules {
		if err := wf.SetParam(m.ID, "work", "200"); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			reg := engine.NewRegistry()
			workloads.RegisterAll(reg)
			e := engine.New(engine.Options{Registry: reg, Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), wf, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationValueHashing isolates the cost of content hashing —
// the price paid for artifact identity, caching and run diffing — on a
// representative grid value.
func BenchmarkAblationValueHashing(b *testing.B) {
	grid := workloads.SynthesizeHead("bench.vtk", 24)
	v := engine.Value{Type: "grid", Data: grid}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Hash()
	}
}

// BenchmarkAblationWitnessTracking compares the provenance-tracking join
// against the same join with witness merging ablated (baseline measures
// tuple materialization only).
func BenchmarkAblationWitnessTracking(b *testing.B) {
	n := 1000
	rows := func(base int) [][]relalg.Val {
		out := make([][]relalg.Val, n)
		for i := 0; i < n; i++ {
			out[i] = []relalg.Val{int64(i % 100), int64(base + i)}
		}
		return out
	}
	l, err := relalg.NewRelation("l", []string{"k", "x"}, rows(0))
	if err != nil {
		b.Fatal(err)
	}
	r, err := relalg.NewRelation("r", []string{"k", "y"}, rows(5000))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("witnesses=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relalg.Join(l, r, "k", "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("witnesses=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx := map[int64][]int{}
			for j, t := range r.Tuples {
				idx[t.Values[0].(int64)] = append(idx[t.Values[0].(int64)], j)
			}
			var out [][]relalg.Val
			for _, t := range l.Tuples {
				for _, j := range idx[t.Values[0].(int64)] {
					vals := make([]relalg.Val, 0, 4)
					vals = append(vals, t.Values...)
					vals = append(vals, r.Tuples[j].Values...)
					out = append(out, vals)
				}
			}
			_ = out
		}
	})
}

// BenchmarkAblationViewGranularity shows abstraction cost as a function of
// group size on a 48-module chain run.
func BenchmarkAblationViewGranularity(b *testing.B) {
	col := provenance.NewCollector()
	reg := engine.NewRegistry()
	workloads.RegisterAll(reg)
	e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 4})
	res, err := e.Run(context.Background(), workloads.Chain(48), nil)
	if err != nil {
		b.Fatal(err)
	}
	log, err := col.Log(res.RunID)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 4, 16} {
		v := views.NewView(fmt.Sprintf("g%d", g))
		for i := 0; i < 48; i += g {
			var members []string
			for j := i; j < i+g && j < 48; j++ {
				members = append(members, fmt.Sprintf("s%02d", j))
			}
			if err := v.Group(fmt.Sprintf("c%02d", i/g), members...); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("groupsize=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := v.Abstract(log); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStoreIngest compares indexed ingest (mem) against the
// lazily-rebuilt relational tables under repeated interleaved write/read,
// the access pattern of a live capture pipeline.
func BenchmarkAblationStoreIngest(b *testing.B) {
	makeLogs := func(k int) []*provenance.RunLog {
		col := provenance.NewCollector()
		reg := engine.NewRegistry()
		workloads.RegisterAll(reg)
		e := engine.New(engine.Options{Registry: reg, Recorder: col, Workers: 4})
		var logs []*provenance.RunLog
		for i := 0; i < k; i++ {
			res, err := e.Run(context.Background(), workloads.Chain(10), nil)
			if err != nil {
				b.Fatal(err)
			}
			l, err := col.Log(res.RunID)
			if err != nil {
				b.Fatal(err)
			}
			logs = append(logs, l)
		}
		return logs
	}
	logs := makeLogs(8)
	bench := func(b *testing.B, mk func() store.Store) {
		for i := 0; i < b.N; i++ {
			s := mk()
			for _, l := range logs {
				if err := s.PutRunLog(l); err != nil {
					b.Fatal(err)
				}
				// Interleaved read forces index/table maintenance.
				if ents, err := s.Entities([]string{l.Executions[0].ID}); err != nil || ents[0].Execution == nil {
					b.Fatal(err)
				}
			}
			s.Close()
		}
	}
	b.Run("store=mem", func(b *testing.B) { bench(b, func() store.Store { return store.NewMemStore() }) })
	b.Run("store=rel", func(b *testing.B) { bench(b, func() store.Store { return store.NewRelStore() }) })
	b.Run("store=triple", func(b *testing.B) { bench(b, func() store.Store { return store.NewTripleStore() }) })
}
