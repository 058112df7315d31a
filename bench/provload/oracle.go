package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/query/pql"
	"repro/internal/store"
)

// oracle is the differential reference: the runs the node was given, in a
// MemStore, answered by the per-edge store.NaiveClosure and by pql.Run.
// It is built after the timed phase, from the generator, so it costs the
// measured process neither time nor heap.
type oracle struct {
	mem       *store.MemStore
	runs      map[string]bool
	userBytes int64 // Σ marshalled run-log bytes: what the user handed over
}

func newOracle() *oracle { return &oracle{mem: store.NewMemStore(), runs: map[string]bool{}} }

func (o *oracle) add(g Gen, refs []runRef) error {
	for _, r := range refs {
		l := g.Run(r.f, r.stream, r.index)
		data, err := json.Marshal(l)
		if err != nil {
			return err
		}
		o.userBytes += int64(len(data))
		if err := o.mem.PutRunLog(l); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		o.runs[l.Run.ID] = true
	}
	return nil
}

// verdict counts checked answers and wrong ones, keeping the first
// mismatch for the report.
type verdict struct {
	checked, wrong int
	first          string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.checked++
	if !ok {
		v.wrong++
		if v.first == "" {
			v.first = fmt.Sprintf(format, args...)
		}
	}
}

// bounds is what the oracle allows one recorded read to have answered:
// everything in lower, nothing outside upper. On a read-only workload the
// two are equal; under ingest lower is the seeded store's answer and upper
// the final one, since closures only grow.
type bounds struct {
	lower, upper map[string][]string // entity → neighbours (expand) or "" → closure
}

func (o *oracle) answer(s readSample) (map[string][]string, error) {
	if s.closure {
		ids, err := store.NaiveClosure(o.mem, s.ids[0], s.dir)
		return map[string][]string{"": ids}, err
	}
	return o.mem.Expand(s.ids, s.dir)
}

func within(got, lower, upper []string) bool {
	in := make(map[string]bool, len(got))
	for _, id := range got {
		if in[id] {
			return false // a closure or neighbour list never repeats an entity
		}
		in[id] = true
	}
	for _, id := range lower {
		if !in[id] {
			return false
		}
	}
	up := make(map[string]bool, len(upper))
	for _, id := range upper {
		up[id] = true
	}
	for _, id := range got {
		if !up[id] {
			return false
		}
	}
	return true
}

// checkReads compares recorded reads with their bounds.
func checkReads(v *verdict, samples []readSample, bs []bounds) {
	for i, s := range samples {
		b := bs[i]
		got := s.adj
		if s.closure {
			got = map[string][]string{"": s.answer}
		}
		ok := true
		for id := range b.lower {
			_, has := got[id]
			ok = ok && has
		}
		for id, ns := range got {
			up, known := b.upper[id]
			ok = ok && known && within(ns, b.lower[id], up)
		}
		v.check(ok, "%s %v: got %d entries, oracle allows %d..%d", s.dir, s.ids, size(got), size(b.lower), size(b.upper))
	}
}

func size(m map[string][]string) int {
	n := 0
	for _, v := range m {
		n += len(v)
	}
	return n
}

// checkQueries compares every PQL result digest a reader saw with pql.Run
// on the oracle.
func (o *oracle) checkQueries(v *verdict, queries []string, seen map[int]map[string]int) error {
	for k, digests := range seen {
		res, err := pql.Run(o.mem, queries[k])
		if err != nil {
			return fmt.Errorf("oracle query %d: %w", k, err)
		}
		want := digest(res)
		for d, n := range digests {
			for ; n > 0; n-- {
				v.check(d == want, "query %d: result differs from pql.Run on the oracle", k)
			}
		}
	}
	return nil
}

// checkClosure compares one closure read straight off a store with the
// oracle's, as sets.
func (o *oracle) checkClosure(v *verdict, what string, got []string, root string, dir store.Direction) {
	want, err := store.NaiveClosure(o.mem, root, dir)
	v.check(err == nil && sameSet(got, want), "%s %s(%s): %d entities, oracle has %d", what, dir, root, len(got), len(want))
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// checkRuns asserts every acknowledged run is in the reopened store.
func (o *oracle) checkRuns(v *verdict, stored []string) {
	have := make(map[string]bool, len(stored))
	for _, id := range stored {
		have[id] = true
	}
	for id := range o.runs {
		v.check(have[id], "acknowledged run %s is missing after reopen", id)
	}
}
