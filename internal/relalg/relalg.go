// Package relalg is a miniature relational algebra engine with built-in
// why-provenance. It serves two roles in the reproduction:
//
//  1. It is the storage engine behind the relational provenance store
//     (§2.2 surveys systems that keep provenance "as tuples stored in
//     relational database tables").
//  2. It is the database half of §2.4's open problem "connecting database
//     and workflow provenance": every operator tracks, for each output
//     tuple, the set of input tuple IDs that witness it (why-provenance in
//     the Buneman/Tan sense), so package dbprov can join tuple-level and
//     workflow-level lineage into one graph.
//
// Relations are immutable values: operators return new relations and never
// mutate inputs.
package relalg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Val is a relational value: string, int64, float64 or bool.
type Val any

// compareVals orders values of the same dynamic type; mixed types order by
// type name so sorting is total.
func compareVals(a, b Val) int {
	switch x := a.(type) {
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	case int64:
		if y, ok := b.(int64); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	case float64:
		if y, ok := b.(float64); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case !x && y:
				return -1
			case x && !y:
				return 1
			}
			return 0
		}
	}
	return strings.Compare(fmt.Sprintf("%T", a), fmt.Sprintf("%T", b))
}

// TupleID identifies a base tuple for provenance. IDs are assigned by the
// relation that first materializes the tuple ("relname:row").
type TupleID string

// Witness is a why-provenance witness: one minimal set of base tuples that
// together justify an output tuple. A tuple's full why-provenance is a set
// of witnesses.
type Witness []TupleID

// normalize sorts and dedups a witness in place, returning it.
func (w Witness) normalize() Witness {
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	out := w[:0]
	var last TupleID
	for i, id := range w {
		if i == 0 || id != last {
			out = append(out, id)
		}
		last = id
	}
	return out
}

func (w Witness) key() string {
	parts := make([]string, len(w))
	for i, id := range w {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}

// mergeWitnessSets computes the cross-product union of two witness sets:
// the why-provenance of a joint (e.g. joined) tuple.
func mergeWitnessSets(a, b []Witness) []Witness {
	if len(a) == 0 {
		return cloneWitnesses(b)
	}
	if len(b) == 0 {
		return cloneWitnesses(a)
	}
	seen := map[string]bool{}
	var out []Witness
	for _, wa := range a {
		for _, wb := range b {
			merged := make(Witness, 0, len(wa)+len(wb))
			merged = append(merged, wa...)
			merged = append(merged, wb...)
			merged = merged.normalize()
			k := merged.key()
			if !seen[k] {
				seen[k] = true
				out = append(out, merged)
			}
		}
	}
	return out
}

// unionWitnessSets unions two witness sets (alternative justifications, as
// produced by duplicate elimination or set union).
func unionWitnessSets(a, b []Witness) []Witness {
	seen := map[string]bool{}
	var out []Witness
	for _, w := range a {
		k := w.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	for _, w := range b {
		k := w.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, w)
		}
	}
	return out
}

func cloneWitnesses(ws []Witness) []Witness {
	out := make([]Witness, len(ws))
	for i, w := range ws {
		out[i] = append(Witness(nil), w...)
	}
	return out
}

// Tuple is one row: values aligned with the relation's schema, plus its
// why-provenance.
type Tuple struct {
	Values []Val
	Prov   []Witness
}

// Relation is an immutable named relation with a flat schema.
type Relation struct {
	Name   string
	Schema []string
	Tuples []Tuple
	colIdx map[string]int
}

// NewRelation creates a base relation from rows. Each row is assigned a
// base tuple ID "name:i" as its own single witness.
func NewRelation(name string, schema []string, rows [][]Val) (*Relation, error) {
	r := &Relation{Name: name, Schema: append([]string(nil), schema...)}
	if err := r.buildIndex(); err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("relalg: %s row %d has %d values, schema has %d", name, i, len(row), len(schema))
		}
		id := TupleID(fmt.Sprintf("%s:%d", name, i))
		r.Tuples = append(r.Tuples, Tuple{
			Values: append([]Val(nil), row...),
			Prov:   []Witness{{id}},
		})
	}
	return r, nil
}

func (r *Relation) buildIndex() error {
	r.colIdx = make(map[string]int, len(r.Schema))
	for i, c := range r.Schema {
		if c == "" {
			return fmt.Errorf("relalg: %s has empty column name", r.Name)
		}
		if _, dup := r.colIdx[c]; dup {
			return fmt.Errorf("relalg: %s duplicate column %q", r.Name, c)
		}
		r.colIdx[c] = i
	}
	return nil
}

// Col returns the index of a column.
func (r *Relation) Col(name string) (int, error) {
	i, ok := r.colIdx[name]
	if !ok {
		return 0, fmt.Errorf("relalg: relation %s has no column %q", r.Name, name)
	}
	return i, nil
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }

// derived creates an empty relation sharing provenance conventions.
func derived(name string, schema []string) *Relation {
	r := &Relation{Name: name, Schema: append([]string(nil), schema...)}
	_ = r.buildIndex() // schemas of derived relations are built from valid inputs
	return r
}

// String renders the relation as an aligned table with provenance column.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)\n", r.Name, strings.Join(r.Schema, ", "))
	for _, t := range r.Tuples {
		parts := make([]string, len(t.Values))
		for i, v := range t.Values {
			parts[i] = fmt.Sprintf("%v", v)
		}
		provParts := make([]string, len(t.Prov))
		for i, w := range t.Prov {
			provParts[i] = "{" + w.key() + "}"
		}
		fmt.Fprintf(&b, "  (%s)  why=%s\n", strings.Join(parts, ", "), strings.Join(provParts, "+"))
	}
	return b.String()
}

// appendKey appends vals' canonical key (for joins, dedup and set
// operations) to buf: each value as its type name, \x01 and its %v text,
// joined by \x00 — the bytes of fmt.Sprintf("%T\x01%v") per value, written
// without fmt for the types a plan carries. Hot paths keep one buffer and
// look a key up as m[string(buf)], which does not allocate.
func appendKey(buf []byte, vals []Val) []byte {
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, 0)
		}
		switch x := v.(type) {
		case string:
			buf = append(append(buf, "string\x01"...), x...)
		case int64:
			buf = strconv.AppendInt(append(buf, "int64\x01"...), x, 10)
		case int:
			buf = strconv.AppendInt(append(buf, "int\x01"...), int64(x), 10)
		case float64:
			buf = strconv.AppendFloat(append(buf, "float64\x01"...), x, 'g', -1, 64)
		case bool:
			buf = strconv.AppendBool(append(buf, "bool\x01"...), x)
		default:
			buf = fmt.Appendf(buf, "%T\x01%v", v, v)
		}
	}
	return buf
}
