package standing

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/provenance"
	"repro/internal/query/datalog"
)

// Conjunctive subscriptions are rules of one datalog.Program, which holds
// the extensional facts of every stored log (datalog.LogFacts, the same
// flattening LoadStore uses). Each distinct (query, output) pair is one
// group and one rule, q#n(out…) :- body; an ingest adds the log's facts
// and runs Evaluate, whose semi-naive round joins each rule only against
// what the log added, and a group's new rows are its head facts past the
// group's watermark. Facts only accumulate, so conjunctive results are
// monotone — add events only.

// conjGroup is the subscriptions sharing one conjunctive query: its rule's
// head predicate and how many of that predicate's facts they have been
// sent. Identical queries share one evaluation — many clients watching the
// same standing query is the common case.
type conjGroup struct {
	key  string
	pred string
	subs []*sub
	sent int
}

// parseConj parses and validates a conjunctive spec into a rule whose
// head carries the output variables and no predicate yet. The query is the
// rule-body syntax the Datalog engine uses: comma-separated atoms,
// uppercase (or ?-prefixed) variables, 'quoted' constants, e.g.
//
//	used(E, A), generated(E, B)
//
// over the extensional schema of datalog.LoadStore. Output names the
// projected variables; empty means all, in first-occurrence order.
func parseConj(spec Spec) (datalog.Rule, error) {
	q := strings.TrimSpace(spec.Query)
	if q == "" {
		return datalog.Rule{}, fmt.Errorf("standing: conjunctive subscription needs a query")
	}
	r, err := datalog.ParseRule("q() :- " + q)
	if err != nil {
		return datalog.Rule{}, fmt.Errorf("standing: parse query: %w", err)
	}
	if len(r.Body) == 0 {
		return datalog.Rule{}, fmt.Errorf("standing: conjunctive query %q has no atoms", q)
	}
	schema := datalog.ExtensionalArity()
	var allVars []string
	varSeen := map[string]bool{}
	for _, atom := range r.Body {
		arity, ok := schema[atom.Pred]
		if !ok {
			return datalog.Rule{}, fmt.Errorf("standing: unknown predicate %q (extensional schema: %s)",
				atom.Pred, strings.Join(sortedPreds(schema), ", "))
		}
		if len(atom.Args) != arity {
			return datalog.Rule{}, fmt.Errorf("standing: predicate %s has arity %d, got %d args", atom.Pred, arity, len(atom.Args))
		}
		for _, t := range atom.Args {
			if t.IsVar && !varSeen[t.Value] {
				varSeen[t.Value] = true
				allVars = append(allVars, t.Value)
			}
		}
	}
	output := spec.Output
	if len(output) == 0 {
		output = allVars
	}
	if len(output) == 0 {
		return datalog.Rule{}, fmt.Errorf("standing: conjunctive query %q binds no variables", q)
	}
	r.Head.Args = nil
	for _, v := range output {
		if !varSeen[v] {
			return datalog.Rule{}, fmt.Errorf("standing: output variable %q not bound in query", v)
		}
		r.Head.Args = append(r.Head.Args, datalog.Term{Value: v, IsVar: true})
	}
	return r, nil
}

func sortedPreds(schema map[string]int) []string {
	out := make([]string, 0, len(schema))
	for p := range schema {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// conjGroupLocked returns the group evaluating spec's query, adding its
// rule to the program — and, on the first conjunctive Subscribe, loading
// the program's facts from the store — when no subscription shares it yet.
// Thereafter ApplyDelta keeps the facts current; re-delivery of a log
// already scanned here deduplicates to nothing.
func (m *Manager) conjGroupLocked(spec Spec) (*conjGroup, error) {
	key := spec.Query + "\x00" + strings.Join(spec.Output, "\x00")
	if g, ok := m.groups[key]; ok {
		return g, nil
	}
	r, err := parseConj(spec)
	if err != nil {
		return nil, err
	}
	if m.prog == nil {
		p := datalog.NewProgram()
		if err := datalog.LoadStore(p, m.st); err != nil {
			return nil, err
		}
		m.prog = p
	}
	m.nextRule++
	r.Head.Pred = fmt.Sprintf("q#%d", m.nextRule)
	if err := m.prog.AddRule(r); err != nil {
		return nil, err
	}
	m.prog.Evaluate()
	g := &conjGroup{key: key, pred: r.Head.Pred, sent: m.prog.FactCount(r.Head.Pred)}
	m.groups[key] = g
	return g, nil
}

// applyConjLocked maintains the conjunctive subscriptions for one ingest:
// the log's facts join the program, one Evaluate derives what they make
// newly derivable, and each group's new head facts go out as one add event
// per subscription.
func (m *Manager) applyConjLocked(l *provenance.RunLog) {
	if m.prog == nil {
		return
	}
	// LogFacts emits only the schema's predicates at their arities, and
	// AddFact refuses nothing else.
	_ = datalog.LogFacts(l, m.prog.AddFact)
	m.prog.Evaluate()
	for _, g := range m.groups {
		rows := m.prog.FactsSince(g.pred, g.sent)
		if len(rows) == 0 {
			continue
		}
		g.sent += len(rows)
		adds := rowItems(rows)
		for _, s := range g.subs {
			m.publishLocked(s, EventAdd, adds)
		}
	}
}

// rowItems renders conjunctive output rows as subscription items, sorted.
func rowItems(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, " ")
	}
	sort.Strings(out)
	return out
}
