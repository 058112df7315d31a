// The SPARQL-like engine: basic graph patterns over the triple store, the
// Semantic-Web query approach of the systems surveyed in §2.2 [46, 26, 22].
// Queries have the shape
//
//	SELECT ?exec ?mod WHERE {
//	  ?exec prov:module ?mod .
//	  ?exec prov:used <art-000123> .
//	}
//
// Variables start with '?'; IRIs/IDs may be written bare or in <angle
// brackets>; literals in double quotes. Patterns are joined on shared
// variables; join order is chosen by ascending estimated selectivity.

package survey

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/store"
)

// part is one position of a triple pattern: a variable name, or the fixed
// value the position is bound to.
type part struct {
	value string
	isVar bool
}

// triplePattern is subject / predicate / object, each either a variable or
// a constant.
type triplePattern struct {
	S, P, O part
}

// sparqlQuery is a parsed SELECT query.
type sparqlQuery struct {
	Select   []string // projected variable names, in declaration order
	Patterns []triplePattern
}

// Result holds a SPARQL-like query's bindings: one row per solution,
// columns aligned with Vars.
type Result struct {
	Vars []string
	Rows [][]string
}

// parseSPARQL parses a SPARQL-like SELECT query.
func parseSPARQL(src string) (*sparqlQuery, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	i := 0
	expect := func(word string) error {
		if i >= len(toks) || !strings.EqualFold(toks[i], word) {
			return fmt.Errorf("survey: expected %q at token %d", word, i)
		}
		i++
		return nil
	}
	if err := expect("SELECT"); err != nil {
		return nil, err
	}
	q := &sparqlQuery{}
	for i < len(toks) && strings.HasPrefix(toks[i], "?") {
		q.Select = append(q.Select, toks[i][1:])
		i++
	}
	if len(q.Select) == 0 {
		return nil, fmt.Errorf("survey: SELECT requires at least one variable")
	}
	if err := expect("WHERE"); err != nil {
		return nil, err
	}
	if err := expect("{"); err != nil {
		return nil, err
	}
	for i < len(toks) && toks[i] != "}" {
		var tp triplePattern
		for j, dst := range []*part{&tp.S, &tp.P, &tp.O} {
			if i >= len(toks) || toks[i] == "}" || toks[i] == "." {
				return nil, fmt.Errorf("survey: incomplete triple pattern (position %d)", j)
			}
			*dst = parsePart(toks[i])
			i++
		}
		q.Patterns = append(q.Patterns, tp)
		if i < len(toks) && toks[i] == "." {
			i++
		}
	}
	if err := expect("}"); err != nil {
		return nil, err
	}
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("survey: WHERE clause has no patterns")
	}
	// Every selected variable must appear in some pattern.
	bound := map[string]bool{}
	for _, tp := range q.Patterns {
		for _, p := range []part{tp.S, tp.P, tp.O} {
			if p.isVar {
				bound[p.value] = true
			}
		}
	}
	for _, v := range q.Select {
		if !bound[v] {
			return nil, fmt.Errorf("survey: selected variable ?%s not used in WHERE", v)
		}
	}
	return q, nil
}

func parsePart(tok string) part {
	switch {
	case strings.HasPrefix(tok, "?"):
		return part{value: tok[1:], isVar: true}
	case strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">"):
		return part{value: tok[1 : len(tok)-1]}
	case strings.HasPrefix(tok, `"`) && strings.HasSuffix(tok, `"`):
		return part{value: tok[1 : len(tok)-1]}
	default:
		return part{value: tok}
	}
}

func tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '{' || c == '}' || c == '.':
			toks = append(toks, string(c))
			i++
		case c == '<':
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				return nil, fmt.Errorf("survey: unterminated IRI at %d", i)
			}
			toks = append(toks, src[i:i+end+1])
			i += end + 1
		case c == '"':
			end := strings.IndexByte(src[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("survey: unterminated literal at %d", i)
			}
			toks = append(toks, src[i:i+end+2])
			i += end + 2
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n\r{}", rune(src[j])) &&
				!(src[j] == '.' && (j+1 == len(src) || src[j+1] == ' ' || src[j+1] == '\n' || src[j+1] == '}')) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

// executeSPARQL evaluates the query against a triple store.
func executeSPARQL(ts *store.TripleStore, q *sparqlQuery) (*Result, error) {
	type bindingRow map[string]string
	rows := []bindingRow{{}}

	// Order patterns by estimated selectivity: fully or partially bound
	// patterns first (fewer matches), joins later.
	patterns := append([]triplePattern(nil), q.Patterns...)
	score := func(tp triplePattern) int {
		n := 0
		if tp.S.isVar {
			n++
		}
		if tp.P.isVar {
			n += 2 // unbound predicate scans widest
		}
		if tp.O.isVar {
			n++
		}
		return n
	}
	sort.SliceStable(patterns, func(i, j int) bool { return score(patterns[i]) < score(patterns[j]) })

	for _, tp := range patterns {
		// Resolve the pattern against the whole binding frontier, dedup the
		// resulting index probes, and answer them with one batched store
		// call instead of one Match (and one lock round-trip) per row.
		probeIdx := map[store.Triple]int{}
		var probes []store.Triple
		resolved := make([]store.Triple, len(rows))
		for ri, b := range rows {
			k := store.Triple{S: resolve(tp.S, b), P: resolve(tp.P, b), O: resolve(tp.O, b)}
			resolved[ri] = k
			if _, ok := probeIdx[k]; !ok {
				probeIdx[k] = len(probes)
				probes = append(probes, k)
			}
		}
		matches := ts.MatchBatch(probes)
		var next []bindingRow
		for ri, b := range rows {
			for _, t := range matches[probeIdx[resolved[ri]]] {
				nb := extend(b, tp, t.S, t.P, t.O)
				if nb != nil {
					next = append(next, nb)
				}
			}
		}
		rows = next
		if len(rows) == 0 {
			break
		}
	}

	res := &Result{Vars: q.Select}
	seen := map[string]bool{}
	for _, b := range rows {
		row := make([]string, len(q.Select))
		for i, v := range q.Select {
			row[i] = b[v]
		}
		key := strings.Join(row, "\x00")
		if !seen[key] {
			seen[key] = true
			res.Rows = append(res.Rows, row)
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return strings.Join(res.Rows[i], "\x00") < strings.Join(res.Rows[j], "\x00")
	})
	return res, nil
}

func resolve(p part, b map[string]string) string {
	if !p.isVar {
		return p.value
	}
	return b[p.value] // "" (wildcard) when unbound
}

func extend(b map[string]string, tp triplePattern, s, p, o string) map[string]string {
	nb := make(map[string]string, len(b)+3)
	for k, v := range b {
		nb[k] = v
	}
	for _, pair := range []struct {
		part part
		got  string
	}{{tp.S, s}, {tp.P, p}, {tp.O, o}} {
		if !pair.part.isVar {
			continue
		}
		if have, ok := nb[pair.part.value]; ok {
			if have != pair.got {
				return nil
			}
			continue
		}
		nb[pair.part.value] = pair.got
	}
	return nb
}

// RunSPARQL parses a SPARQL-like SELECT query and evaluates it against a
// triple store.
func RunSPARQL(ts *store.TripleStore, src string) (*Result, error) {
	q, err := parseSPARQL(src)
	if err != nil {
		return nil, err
	}
	return executeSPARQL(ts, q)
}
