// Package datalog is a semi-naive Datalog engine: the Prolog-style
// declarative interface to provenance the paper cites ([8] queries
// collection-oriented provenance in Prolog). Recursive rules express
// lineage closure naturally:
//
//	ancestor(X, Y) :- dep(X, Y).
//	ancestor(X, Z) :- dep(X, Y), ancestor(Y, Z).
//
// Facts are loaded from provenance stores via LoadStore; rules and queries
// are parsed from text. Variables start with an uppercase letter or '?';
// everything else is a constant (quoting allows arbitrary strings).
package datalog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

// Term is a variable or constant inside an atom.
type Term struct {
	Value string
	IsVar bool
}

// Atom is predicate(t1, ..., tn).
type Atom struct {
	Pred string
	Args []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.Value
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Rule is head :- body. An empty body makes the rule a fact.
type Rule struct {
	Head Atom
	Body []Atom
}

// Program is a set of rules plus a base fact store.
type Program struct {
	rules []Rule
	facts map[string]map[string]bool // pred -> encoded tuple -> true
	arity map[string]int
	// rel mirrors facts as append-only tuple slices per predicate: the
	// planner's leaf relations (exec.go). Kept in lockstep with facts.
	rel map[string][]relalg.Tuple
	// plans caches each (rule, focus)'s prepared conjunctive plan across
	// semi-naive rounds and Evaluate calls (exec.go). Plans are
	// statistics-free — selection pushdown and join order depend only on
	// the rule's shape — so nothing ever invalidates an entry; rules are
	// append-only, keeping indexes stable.
	plans map[planKey]*rulePlan
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		facts: map[string]map[string]bool{},
		arity: map[string]int{},
		rel:   map[string][]relalg.Tuple{},
	}
}

const fieldSep = "\x00"

func encodeTuple(vals []string) string { return strings.Join(vals, fieldSep) }

// decodeTuple inverts encodeTuple for a predicate of the given arity: the
// empty key is the empty tuple at arity 0 and one empty constant at 1.
func decodeTuple(s string, arity int) []string {
	if arity == 0 {
		return nil
	}
	return strings.Split(s, fieldSep)
}

// AddFact inserts a ground fact.
func (p *Program) AddFact(pred string, vals ...string) error {
	if err := p.checkArity(pred, len(vals)); err != nil {
		return err
	}
	m, ok := p.facts[pred]
	if !ok {
		m = map[string]bool{}
		p.facts[pred] = m
	}
	key := encodeTuple(vals)
	if !m[key] {
		m[key] = true
		p.appendTuple(pred, vals)
	}
	return nil
}

func (p *Program) checkArity(pred string, n int) error {
	if have, ok := p.arity[pred]; ok {
		if have != n {
			return fmt.Errorf("datalog: predicate %s used with arity %d and %d", pred, have, n)
		}
		return nil
	}
	p.arity[pred] = n
	return nil
}

// AddRule appends a rule after checking that every head variable is bound
// in the body (range restriction).
func (p *Program) AddRule(r Rule) error {
	if err := p.checkArity(r.Head.Pred, len(r.Head.Args)); err != nil {
		return err
	}
	bound := map[string]bool{}
	for _, b := range r.Body {
		if err := p.checkArity(b.Pred, len(b.Args)); err != nil {
			return err
		}
		for _, t := range b.Args {
			if t.IsVar {
				bound[t.Value] = true
			}
		}
	}
	for _, t := range r.Head.Args {
		if t.IsVar && !bound[t.Value] {
			return fmt.Errorf("datalog: head variable %s unbound in body of %s", t.Value, r.Head)
		}
	}
	p.rules = append(p.rules, r)
	return nil
}

// FactCount returns the number of stored facts for a predicate.
func (p *Program) FactCount(pred string) int { return len(p.facts[pred]) }

// binding maps variable names to constants.
type binding map[string]string

func unify(atom Atom, vals []string, b binding) (binding, bool) {
	nb := b
	copied := false
	for i, t := range atom.Args {
		if !t.IsVar {
			if t.Value != vals[i] {
				return nil, false
			}
			continue
		}
		if have, ok := nb[t.Value]; ok {
			if have != vals[i] {
				return nil, false
			}
			continue
		}
		if !copied {
			nb = make(binding, len(b)+1)
			for k, v := range b {
				nb[k] = v
			}
			copied = true
		}
		nb[t.Value] = vals[i]
	}
	return nb, true
}

// Query evaluates the program (if not already at fixpoint) and returns all
// bindings of the query atom's variables, as rows aligned with the order of
// first appearance of each variable; Vars lists that order.
type QueryResult struct {
	Vars []string
	Rows [][]string
}

// Query runs a query atom against the materialized program.
func (p *Program) Query(q Atom) (*QueryResult, error) {
	if have, ok := p.arity[q.Pred]; ok && have != len(q.Args) {
		return nil, fmt.Errorf("datalog: query arity mismatch for %s", q.Pred)
	}
	p.Evaluate()
	return p.match(q), nil
}

// match returns the stored facts that unify with the query atom, one sorted
// distinct row per binding of its variables.
func (p *Program) match(q Atom) *QueryResult {
	var vars []string
	seen := map[string]bool{}
	for _, t := range q.Args {
		if t.IsVar && !seen[t.Value] {
			seen[t.Value] = true
			vars = append(vars, t.Value)
		}
	}
	res := &QueryResult{Vars: vars}
	rowSet := map[string]bool{}
	for key := range p.facts[q.Pred] {
		b, ok := unify(q, decodeTuple(key, p.arity[q.Pred]), binding{})
		if !ok {
			continue
		}
		row := make([]string, len(vars))
		for i, v := range vars {
			row[i] = b[v]
		}
		k := encodeTuple(row)
		if !rowSet[k] {
			rowSet[k] = true
			res.Rows = append(res.Rows, row)
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return encodeTuple(res.Rows[i]) < encodeTuple(res.Rows[j])
	})
	return res
}
