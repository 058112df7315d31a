package relalg

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Iterator is the pull-based streaming form of a relation: a schema plus a
// sequence of tuples produced on demand. The operators in this file are
// the only implementation of each: the relation-at-a-time entry points in
// operators.go materialize them, and stream_test.go pins their tuples
// (values AND why-provenance witness sets) to independent eager
// references. Pipelined operators (select, rename, bag projection, the
// probe side of a join) hold no intermediate relation at all, and the
// blocking operators (set projection, union, group-by, sort) buffer only
// their own dedup or group state.
//
// Contract: Next returns the next tuple, or nil at end of stream; once nil
// or an error is returned the iterator stays exhausted. Returned tuples
// and their witness slices may alias the source relation's storage —
// consumers must treat them as read-only and must not retain Values slices
// across Next calls unless the operator documents otherwise (materialize
// copies; the join output allocates fresh Values rows).
type Iterator interface {
	Schema() []string
	Next() (*Tuple, error)
	Close() error
}

// --- sources -----------------------------------------------------------------

type scanIter struct {
	name   string
	schema []string
	tuples []Tuple
	i      int
}

// newScan streams an existing relation without copying tuples.
func newScan(r *Relation) Iterator {
	return &scanIter{name: r.Name, schema: r.Schema, tuples: r.Tuples}
}

// NewSliceScan streams a raw tuple slice under a schema: the leaf form for
// base data that never passes through a *Relation (the planner's leaves —
// Datalog relations and deltas, PQL's virtual tables).
func NewSliceScan(name string, schema []string, tuples []Tuple) Iterator {
	return &scanIter{name: name, schema: schema, tuples: tuples}
}

func (s *scanIter) Schema() []string { return s.schema }
func (s *scanIter) Close() error     { return nil }
func (s *scanIter) Next() (*Tuple, error) {
	if s.i >= len(s.tuples) {
		return nil, nil
	}
	t := &s.tuples[s.i]
	s.i++
	return t, nil
}

// --- pipelined operators -----------------------------------------------------

type selectIter struct {
	in   Iterator
	pred Pred
}

// streamSelect filters tuples by pred without copying them (σ; witnesses
// pass through unchanged: selection does not combine tuples).
func streamSelect(in Iterator, pred Pred) Iterator {
	return &selectIter{in: in, pred: pred}
}

func (s *selectIter) Schema() []string { return s.in.Schema() }
func (s *selectIter) Close() error     { return s.in.Close() }
func (s *selectIter) Next() (*Tuple, error) {
	for {
		t, err := s.in.Next()
		if t == nil || err != nil {
			return nil, err
		}
		if s.pred(t.Values) {
			return t, nil
		}
	}
}

// bindIter projects columns positionally WITHOUT deduplication (bag
// semantics) and may rename them: the cheap π used inside pipelines where
// set semantics are not wanted (PQL output columns, planner variable
// binding and output). Each output tuple allocates only its Values slice;
// witnesses pass through.
type bindIter struct {
	in     Iterator
	idx    []int
	schema []string
}

// StreamBind projects the columns at idx under new names: the planner's
// variable-binding projection.
func StreamBind(in Iterator, idx []int, names []string) Iterator {
	return &bindIter{in: in, idx: idx, schema: names}
}

func (b *bindIter) Schema() []string { return b.schema }
func (b *bindIter) Close() error     { return b.in.Close() }
func (b *bindIter) Next() (*Tuple, error) {
	t, err := b.in.Next()
	if t == nil || err != nil {
		return nil, err
	}
	vals := make([]Val, len(b.idx))
	for j, i := range b.idx {
		vals[j] = t.Values[i]
	}
	return &Tuple{Values: vals, Prov: t.Prov}, nil
}

type semijoinIter struct {
	in   Iterator
	i    int
	keys map[Val]bool
}

// StreamSemijoin keeps the tuples whose col value is in keys (streaming ⋉).
func StreamSemijoin(in Iterator, col string, keys map[Val]bool) (Iterator, error) {
	i, err := colIndex(in.Schema(), col)
	if err != nil {
		return nil, err
	}
	return &semijoinIter{in: in, i: i, keys: keys}, nil
}

func (s *semijoinIter) Schema() []string { return s.in.Schema() }
func (s *semijoinIter) Close() error     { return s.in.Close() }
func (s *semijoinIter) Next() (*Tuple, error) {
	for {
		t, err := s.in.Next()
		if t == nil || err != nil {
			return nil, err
		}
		if s.keys[t.Values[s.i]] {
			return t, nil
		}
	}
}

type limitIter struct {
	in   Iterator
	left int
}

// StreamLimit passes through at most n tuples.
func StreamLimit(in Iterator, n int) Iterator {
	return &limitIter{in: in, left: n}
}

func (l *limitIter) Schema() []string { return l.in.Schema() }
func (l *limitIter) Close() error     { return l.in.Close() }
func (l *limitIter) Next() (*Tuple, error) {
	if l.left <= 0 {
		return nil, nil
	}
	t, err := l.in.Next()
	if t == nil || err != nil {
		return nil, err
	}
	l.left--
	return t, nil
}

// --- hash joins --------------------------------------------------------------

// joinIter is the shared streaming hash join: it drains and indexes the
// build side once, then probes with the (streaming) outer side, emitting
// combined tuples in outer-major order. Output Values rows are freshly
// allocated; witness sets are cross-merged (a joined tuple is justified by
// one witness from each side).
type joinIter struct {
	outer     Iterator
	buildIdx  map[string][]int
	buildTups []Tuple
	probeIdx  []int // key columns in the outer schema
	buildKey  []int // key columns in the build schema
	buildKeep []int // build columns appended to output; nil = all (natural join drops shared keys)
	schema    []string

	cur     *Tuple // current outer tuple being expanded
	matches []int
	mi      int
	built   bool
	build   func() error
}

// streamJoin hash-joins two iterators on leftCol = rightCol; the output
// schema is left's columns followed by right's (right columns colliding
// with left ones are prefixed with rightName). The right side is materialized as the hash
// build side; the left streams through as the probe side.
func streamJoin(l, r Iterator, leftCol, rightCol, rightName string) (Iterator, error) {
	li, err := colIndex(l.Schema(), leftCol)
	if err != nil {
		return nil, err
	}
	ri, err := colIndex(r.Schema(), rightCol)
	if err != nil {
		return nil, err
	}
	schema := joinSchema(l.Schema(), r.Schema(), rightName)
	return newJoinIter(l, r, []int{li}, []int{ri}, schema), nil
}

// streamNaturalJoin joins two iterators on every shared column name (the
// planner's binding join): the output schema is the left schema followed by
// the right's non-shared columns. With no shared columns it degrades to the
// cross product, which is what a conjunctive body with disconnected atoms
// means.
func streamNaturalJoin(l, r Iterator) Iterator {
	ls, rs := l.Schema(), r.Schema()
	lpos := make(map[string]int, len(ls))
	for i, c := range ls {
		lpos[c] = i
	}
	var probeKey, buildKey []int
	// keep must stay non-nil even when every build column is a shared key:
	// nil means "append all build columns" inside the join.
	keep := []int{}
	schema := append([]string(nil), ls...)
	for i, c := range rs {
		if j, shared := lpos[c]; shared {
			probeKey = append(probeKey, j)
			buildKey = append(buildKey, i)
		} else {
			keep = append(keep, i)
			schema = append(schema, c)
		}
	}
	it := newJoinIter(l, r, probeKey, buildKey, schema)
	it.buildKeep = keep
	return it
}

func newJoinIter(outer, build Iterator, probeKey, buildKey []int, schema []string) *joinIter {
	j := &joinIter{outer: outer, probeIdx: probeKey, buildKey: buildKey, schema: schema}
	j.build = func() error {
		defer build.Close()
		j.buildIdx = map[string][]int{}
		var keyBuf []Val
		for {
			t, err := build.Next()
			if err != nil {
				return err
			}
			if t == nil {
				return nil
			}
			keyBuf = keyBuf[:0]
			for _, i := range j.buildKey {
				keyBuf = append(keyBuf, t.Values[i])
			}
			k := valueKey(keyBuf)
			j.buildIdx[k] = append(j.buildIdx[k], len(j.buildTups))
			j.buildTups = append(j.buildTups, *t)
		}
	}
	return j
}

func (j *joinIter) Schema() []string { return j.schema }

func (j *joinIter) Close() error { return j.outer.Close() }

func (j *joinIter) Next() (*Tuple, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
		j.built = true
	}
	var keyBuf []Val
	for {
		for j.cur != nil && j.mi < len(j.matches) {
			bt := &j.buildTups[j.matches[j.mi]]
			j.mi++
			keep := j.buildKeep
			n := len(bt.Values)
			if keep != nil {
				n = len(keep)
			}
			vals := make([]Val, 0, len(j.cur.Values)+n)
			vals = append(vals, j.cur.Values...)
			if keep == nil {
				vals = append(vals, bt.Values...)
			} else {
				for _, i := range keep {
					vals = append(vals, bt.Values[i])
				}
			}
			return &Tuple{Values: vals, Prov: mergeWitnessSets(j.cur.Prov, bt.Prov)}, nil
		}
		t, err := j.outer.Next()
		if t == nil || err != nil {
			return nil, err
		}
		keyBuf = keyBuf[:0]
		for _, i := range j.probeIdx {
			keyBuf = append(keyBuf, t.Values[i])
		}
		j.cur = t
		j.matches = j.buildIdx[valueKey(keyBuf)]
		j.mi = 0
	}
}

// --- blocking operators ------------------------------------------------------

// drainIter buffers a computed tuple list and streams it: the tail of
// every blocking operator.
type drainIter struct {
	schema []string
	tuples []Tuple
	i      int
	fill   func() ([]Tuple, error)
	filled bool
}

func (d *drainIter) Schema() []string { return d.schema }
func (d *drainIter) Close() error     { return nil }
func (d *drainIter) Next() (*Tuple, error) {
	if !d.filled {
		tups, err := d.fill()
		if err != nil {
			return nil, err
		}
		d.tuples, d.filled = tups, true
	}
	if d.i >= len(d.tuples) {
		return nil, nil
	}
	t := &d.tuples[d.i]
	d.i++
	return t, nil
}

// StreamProject keeps the named columns with set semantics: duplicate rows
// merge and their witness sets union (alternative justifications). The
// operator consumes its input one tuple at a time and buffers only the
// deduplicated output (memory proportional to distinct rows, not input
// rows); output order is first-occurrence order.
func StreamProject(in Iterator, cols ...string) (Iterator, error) {
	idx, err := colIndexes(in.Schema(), cols)
	if err != nil {
		return nil, err
	}
	schema := append([]string(nil), cols...)
	return &drainIter{
		schema: schema,
		fill: func() ([]Tuple, error) {
			defer in.Close()
			var out []Tuple
			byKey := map[string]int{}
			for {
				t, err := in.Next()
				if err != nil {
					return nil, err
				}
				if t == nil {
					return out, nil
				}
				vals := make([]Val, len(idx))
				for j, i := range idx {
					vals[j] = t.Values[i]
				}
				k := valueKey(vals)
				if at, ok := byKey[k]; ok {
					out[at].Prov = unionWitnessSets(out[at].Prov, t.Prov)
					continue
				}
				byKey[k] = len(out)
				out = append(out, Tuple{Values: vals, Prov: t.Prov})
			}
		},
	}, nil
}

// streamUnion computes the set union of two same-schema streams, unioning
// witness sets of value-equal tuples. Buffers only the deduplicated output.
func streamUnion(a, b Iterator) (Iterator, error) {
	if err := schemaNamesEqual(a.Schema(), b.Schema()); err != nil {
		return nil, err
	}
	schema := append([]string(nil), a.Schema()...)
	return &drainIter{
		schema: schema,
		fill: func() ([]Tuple, error) {
			defer a.Close()
			defer b.Close()
			var out []Tuple
			byKey := map[string]int{}
			add := func(t *Tuple) {
				k := valueKey(t.Values)
				if at, ok := byKey[k]; ok {
					out[at].Prov = unionWitnessSets(out[at].Prov, t.Prov)
					return
				}
				byKey[k] = len(out)
				out = append(out, Tuple{Values: t.Values, Prov: t.Prov})
			}
			for _, in := range []Iterator{a, b} {
				for {
					t, err := in.Next()
					if err != nil {
						return nil, err
					}
					if t == nil {
						break
					}
					add(t)
				}
			}
			return out, nil
		},
	}, nil
}

// streamGroupBy folds the input stream into groups one tuple at a time
// (never materializing the input) and emits [key, agg] rows in sorted-key
// order, with each group's witness sets unioned.
func streamGroupBy(in Iterator, keyCol string, agg AggFunc, aggCol string) (Iterator, error) {
	ki, err := colIndex(in.Schema(), keyCol)
	if err != nil {
		return nil, err
	}
	ai := -1
	if agg != AggCount {
		ai, err = colIndex(in.Schema(), aggCol)
		if err != nil {
			return nil, err
		}
	}
	outCol := string(agg)
	if aggCol != "" {
		outCol = string(agg) + "_" + aggCol
	}
	schema := []string{keyCol, outCol}
	return &drainIter{
		schema: schema,
		fill: func() ([]Tuple, error) {
			defer in.Close()
			type group struct {
				key   Val
				count int64
				sum   float64
				min   float64
				max   float64
				first bool
				prov  []Witness
			}
			groups := map[string]*group{}
			var order []string
			for {
				t, err := in.Next()
				if err != nil {
					return nil, err
				}
				if t == nil {
					break
				}
				k := valueKey([]Val{t.Values[ki]})
				g, ok := groups[k]
				if !ok {
					g = &group{key: t.Values[ki], first: true}
					groups[k] = g
					order = append(order, k)
				}
				g.count++
				if ai >= 0 {
					f, err := toFloat(t.Values[ai])
					if err != nil {
						return nil, fmt.Errorf("relalg: stream groupby %s: %w", agg, err)
					}
					g.sum += f
					if g.first || f < g.min {
						g.min = f
					}
					if g.first || f > g.max {
						g.max = f
					}
					g.first = false
				}
				g.prov = unionWitnessSets(g.prov, t.Prov)
			}
			sort.Strings(order)
			out := make([]Tuple, 0, len(order))
			for _, k := range order {
				g := groups[k]
				var v Val
				switch agg {
				case AggCount:
					v = g.count
				case AggSum:
					v = g.sum
				case AggMin:
					v = g.min
				case AggMax:
					v = g.max
				case AggAvg:
					v = g.sum / float64(g.count)
				default:
					return nil, fmt.Errorf("relalg: unknown aggregate %q", agg)
				}
				out = append(out, Tuple{Values: []Val{g.key, v}, Prov: g.prov})
			}
			return out, nil
		},
	}, nil
}

// StreamSortBy drains and stable-sorts by an arbitrary comparator over the
// named column: PQL's ORDER BY (numeric-aware, optionally descending)
// plugs in here, carrying the sort key through the pipeline instead of
// re-deriving it after projection.
func StreamSortBy(in Iterator, col string, less func(a, b Val) bool) (Iterator, error) {
	return streamSortBy(in, col, less)
}

func streamSortBy(in Iterator, col string, less func(a, b Val) bool) (Iterator, error) {
	i, err := colIndex(in.Schema(), col)
	if err != nil {
		return nil, err
	}
	schema := append([]string(nil), in.Schema()...)
	return &drainIter{
		schema: schema,
		fill: func() ([]Tuple, error) {
			defer in.Close()
			var out []Tuple
			for {
				t, err := in.Next()
				if err != nil {
					return nil, err
				}
				if t == nil {
					break
				}
				out = append(out, *t)
			}
			sort.SliceStable(out, func(a, b int) bool {
				return less(out[a].Values[i], out[b].Values[i])
			})
			return out, nil
		},
	}, nil
}

// --- sinks -------------------------------------------------------------------

// materialize drains an iterator into a named relation, copying values and
// cloning witness sets so the result is independent of the sources.
func materialize(it Iterator, name string) (*Relation, error) {
	defer it.Close()
	out := derived(name, it.Schema())
	for {
		t, err := it.Next()
		if err != nil {
			return nil, err
		}
		if t == nil {
			return out, nil
		}
		out.Tuples = append(out.Tuples, Tuple{
			Values: append([]Val(nil), t.Values...),
			Prov:   cloneWitnesses(t.Prov),
		})
	}
}

// Drain consumes an iterator, invoking fn per tuple; the executor's
// callback sink (fn must not retain the tuple).
func Drain(it Iterator, fn func(*Tuple) error) error {
	defer it.Close()
	var rows uint64
	defer func() { mExecRows.Add(rows) }()
	for {
		t, err := it.Next()
		if err != nil {
			return err
		}
		if t == nil {
			return nil
		}
		rows++
		if err := fn(t); err != nil {
			return err
		}
	}
}

// mExecRows counts every tuple leaving a streaming execution through
// Drain — the shared exit funnel of every plan, PQL's and Datalog's alike.
var mExecRows = obs.Default().Counter("prov_exec_rows_total", "Rows emitted by streaming query executions.")

// --- instrumentation ---------------------------------------------------------

// OpStat is one operator's executed-plan counters: rows emitted downstream,
// exposed by the explain surfaces of the query CLIs.
type OpStat struct {
	Label string
	Rows  int64
}

type countIter struct {
	in   Iterator
	stat *OpStat
}

// Instrument wraps an iterator so every emitted tuple increments stat.Rows:
// the per-operator observability hook behind `provctl query -explain`.
func Instrument(in Iterator, stat *OpStat) Iterator {
	return &countIter{in: in, stat: stat}
}

func (c *countIter) Schema() []string { return c.in.Schema() }
func (c *countIter) Close() error     { return c.in.Close() }
func (c *countIter) Next() (*Tuple, error) {
	t, err := c.in.Next()
	if t != nil {
		c.stat.Rows++
	}
	return t, err
}

// --- helpers -----------------------------------------------------------------

func colIndex(schema []string, col string) (int, error) {
	for i, c := range schema {
		if c == col {
			return i, nil
		}
	}
	return 0, fmt.Errorf("relalg: stream schema %v has no column %q", schema, col)
}

func colIndexes(schema []string, cols []string) ([]int, error) {
	idx := make([]int, len(cols))
	for j, c := range cols {
		i, err := colIndex(schema, c)
		if err != nil {
			return nil, err
		}
		idx[j] = i
	}
	return idx, nil
}

func schemaNamesEqual(a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("relalg: schema arity mismatch %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("relalg: schema mismatch at %d: %q vs %q", i, a[i], b[i])
		}
	}
	return nil
}

// joinSchema builds a join's output schema: left columns, then
// right columns with collisions prefixed by the right relation's name.
func joinSchema(ls, rs []string, rightName string) []string {
	schema := append([]string(nil), ls...)
	used := map[string]bool{}
	for _, c := range schema {
		used[c] = true
	}
	for i, c := range rs {
		name := c
		if used[name] {
			name = rightName + "." + c
		}
		if used[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		used[name] = true
		schema = append(schema, name)
	}
	return schema
}
