package datalog

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseProgram parses newline- or period-separated rules and facts:
//
//	dep(a, b).
//	ancestor(X, Y) :- dep(X, Y).
//	ancestor(X, Z) :- dep(X, Y), ancestor(Y, Z).
//
// Comments start with '%' and run to end of line. Quoted constants
// ('art-0001') may contain any character except the quote.
func ParseProgram(src string) (*Program, error) {
	p := NewProgram()
	for _, clause := range splitClauses(src) {
		r, err := ParseRule(clause)
		if err != nil {
			return nil, err
		}
		if len(r.Body) == 0 {
			if err := addGroundFact(p, r.Head); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.AddRule(r); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func addGroundFact(p *Program, head Atom) error {
	vals := make([]string, len(head.Args))
	for i, t := range head.Args {
		if t.IsVar {
			return fmt.Errorf("datalog: fact %s contains variable %s", head, t.Value)
		}
		vals[i] = t.Value
	}
	return p.AddFact(head.Pred, vals...)
}

// splitClauses cuts src into clauses at each period outside quotes,
// dropping comments: a '%' outside quotes starts one, which runs to the end
// of its line.
func splitClauses(src string) []string {
	var out []string
	var cur strings.Builder
	inQuote, inComment := false, false
	for _, r := range src {
		switch {
		case inComment:
			if r == '\n' {
				inComment = false
				cur.WriteRune(r)
			}
		case r == '\'':
			inQuote = !inQuote
			cur.WriteRune(r)
		case inQuote:
			cur.WriteRune(r)
		case r == '%':
			inComment = true
		case r == '.':
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// ParseRule parses one clause without its trailing period.
func ParseRule(clause string) (Rule, error) {
	parts := strings.SplitN(clause, ":-", 2)
	head, err := ParseAtom(strings.TrimSpace(parts[0]))
	if err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head}
	if len(parts) == 2 {
		body, err := splitAtoms(parts[1])
		if err != nil {
			return Rule{}, err
		}
		for _, s := range body {
			a, err := ParseAtom(s)
			if err != nil {
				return Rule{}, err
			}
			r.Body = append(r.Body, a)
		}
	}
	return r, nil
}

// splitAtoms splits "a(X, Y), b(Y)" on top-level commas.
func splitAtoms(s string) ([]string, error) {
	var out []string
	depth := 0
	inQuote := false
	var cur strings.Builder
	for _, r := range s {
		switch {
		case r == '\'':
			inQuote = !inQuote
			cur.WriteRune(r)
		case inQuote:
			cur.WriteRune(r)
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("datalog: unbalanced parens in %q", s)
			}
			cur.WriteRune(r)
		case r == ',' && depth == 0:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if depth != 0 || inQuote {
		return nil, fmt.Errorf("datalog: unbalanced syntax in %q", s)
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out, nil
}

// ParseAtom parses predicate(arg, ...). A leading "?-" (query prompt) is
// tolerated and stripped.
func ParseAtom(s string) (Atom, error) {
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "?-"))
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("datalog: malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	if pred == "" {
		return Atom{}, fmt.Errorf("datalog: empty predicate in %q", s)
	}
	inner := s[open+1 : len(s)-1]
	args, err := splitAtoms(inner)
	if err != nil {
		return Atom{}, err
	}
	a := Atom{Pred: pred}
	for _, arg := range args {
		t := parseTerm(arg)
		if t.IsVar && t.Value == "" {
			// A bare '?' would reach the planner as a variable with no
			// name, which it reads as a constant.
			return Atom{}, fmt.Errorf("datalog: variable without a name in %q", s)
		}
		a.Args = append(a.Args, t)
	}
	return a, nil
}

func parseTerm(s string) Term {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return Term{Value: s[1 : len(s)-1]}
	}
	if s == "" {
		return Term{Value: s}
	}
	first := rune(s[0])
	if first == '?' {
		return Term{Value: s[1:], IsVar: true}
	}
	if unicode.IsUpper(first) || first == '_' {
		return Term{Value: s, IsVar: true}
	}
	return Term{Value: s}
}
