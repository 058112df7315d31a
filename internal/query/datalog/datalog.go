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
//
// Evaluation is incremental: a Program remembers how far its fixpoint has
// got, so facts and rules may keep arriving between Evaluate calls and
// each call joins only what is new (exec.go). Rule bodies and query atoms
// alike run as plans of the relalg planner; there is no second matcher.
// The standing-query manager keeps its conjunctive subscriptions as rules
// of one such Program, adding each ingested log's facts (LogFacts),
// reading each rule's new head facts (FactsSince) and retiring a rule when
// its last subscriber leaves (Retire).
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

// Program is a set of rules plus a fact store, evaluated incrementally:
// each Evaluate derives only what the facts and rules added since the
// previous one make derivable, so a program that takes facts batch by
// batch — the standing-query manager adds one run log's at a time —
// maintains its fixpoint instead of recomputing it.
type Program struct {
	rules []Rule
	facts map[string]map[string]bool // pred -> encoded tuple -> true
	arity map[string]int
	// rel mirrors facts as append-only tuple slices per predicate, in
	// insertion order: the planner's leaf relations (exec.go) and the
	// positions FactsSince reads from. Kept in lockstep with facts.
	rel map[string][]relalg.Tuple
	// compiled[i] caches rules[i]'s prepared plan (exec.go); kept in
	// lockstep with rules.
	compiled []*rulePlan
	// evaluated counts the rules, a prefix of rules, already run to
	// fixpoint; seen[pred] counts the tuples of rel[pred] they were run
	// over. Evaluate starts from everything past the two.
	evaluated int
	seen      map[string]int
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{
		facts: map[string]map[string]bool{},
		arity: map[string]int{},
		rel:   map[string][]relalg.Tuple{},
		seen:  map[string]int{},
	}
}

const fieldSep = "\x00"

func encodeTuple(vals []string) string { return strings.Join(vals, fieldSep) }

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

// AddRule appends a rule after checking that its body is not empty (a
// bodiless clause is a fact: AddFact) and that every head variable is
// bound in the body (range restriction).
func (p *Program) AddRule(r Rule) error {
	if len(r.Body) == 0 {
		return fmt.Errorf("datalog: rule %s has an empty body", r.Head)
	}
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
	p.compiled = append(p.compiled, nil)
	return nil
}

// Retire removes pred from the program: every rule deriving it and every
// fact of it, derived or added. A predicate some other rule's body reads
// is refused, since what that rule derived from it would outlive it.
func (p *Program) Retire(pred string) error {
	for _, r := range p.rules {
		if r.Head.Pred == pred {
			continue
		}
		for _, a := range r.Body {
			if a.Pred == pred {
				return fmt.Errorf("datalog: cannot retire %s: read by a rule for %s", pred, r.Head.Pred)
			}
		}
	}
	kept, evaluated := 0, p.evaluated
	for i, r := range p.rules {
		if r.Head.Pred == pred {
			if i < p.evaluated {
				evaluated--
			}
			continue
		}
		p.rules[kept], p.compiled[kept] = r, p.compiled[i]
		kept++
	}
	clear(p.rules[kept:])
	clear(p.compiled[kept:])
	p.rules, p.compiled, p.evaluated = p.rules[:kept], p.compiled[:kept], evaluated
	delete(p.facts, pred)
	delete(p.rel, pred)
	delete(p.seen, pred)
	delete(p.arity, pred)
	return nil
}

// FactCount returns the number of stored facts for a predicate.
func (p *Program) FactCount(pred string) int { return len(p.facts[pred]) }

// FactsSince returns pred's facts from position from on, in the order
// they were added. Facts are never reordered or removed short of Retire,
// so FactCount taken after one call is the position to pass to the next,
// which then reads only what was added or derived in between.
func (p *Program) FactsSince(pred string, from int) [][]string {
	tups := p.rel[pred]
	if from >= len(tups) {
		return nil
	}
	out := make([][]string, 0, len(tups)-from)
	for _, t := range tups[from:] {
		out = append(out, strs(t.Values))
	}
	return out
}

// QueryResult holds all bindings of a query atom's variables, as rows
// aligned with the order of first appearance of each variable; Vars lists
// that order.
type QueryResult struct {
	Vars []string
	Rows [][]string
}

// Query evaluates the program (incrementally, as Evaluate does) and
// returns the stored facts that match the query atom, one sorted row per
// binding of its variables. The atom is answered by the same planner the
// rules run on, as a one-leaf plan: its constants and repeated variables
// become selections on the predicate's relation.
func (p *Program) Query(q Atom) (*QueryResult, error) {
	if have, ok := p.arity[q.Pred]; ok && have != len(q.Args) {
		return nil, fmt.Errorf("datalog: query arity mismatch for %s", q.Pred)
	}
	p.Evaluate()
	res := &QueryResult{}
	seen := map[string]bool{}
	for _, t := range q.Args {
		if t.IsVar && !seen[t.Value] {
			seen[t.Value] = true
			res.Vars = append(res.Vars, t.Value)
		}
	}
	// A matching fact is determined by its variables' values, so the rows
	// are distinct without deduplication.
	atoms, tuples := []Atom{q}, p.fullRelations([]Atom{q})
	run(prepare(atoms, tuples, res.Vars), tuples, func(vals []relalg.Val) {
		res.Rows = append(res.Rows, strs(vals))
	})
	sort.Slice(res.Rows, func(i, j int) bool {
		return encodeTuple(res.Rows[i]) < encodeTuple(res.Rows[j])
	})
	return res, nil
}
