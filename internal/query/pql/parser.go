package pql

import (
	"fmt"
	"strings"
)

// Query is the parsed AST. Exactly one of Select/Lineage/Dependents is set.
type Query struct {
	Select    *SelectStmt
	LineageOf string // entity ID
	DependsOf string // entity ID (DEPENDENTS OF)
}

// SelectStmt is SELECT cols FROM table [JOIN table2 ON a = b] [WHERE expr]
// [ORDER BY col [DESC]] [LIMIT n].
type SelectStmt struct {
	Columns []string // nil means '*'
	// Count is true for SELECT COUNT(*): the result is a single row with
	// the matching-row count.
	Count bool
	Table string
	// Join, when non-nil, adds an equijoin with a second table. Columns of
	// the joined row are addressable as "table.col"; bare names resolve
	// when unambiguous.
	Join    *JoinClause
	Where   Expr
	OrderBy string
	Desc    bool
	Limit   int // 0 means no limit
}

// JoinClause is JOIN table ON left = right.
type JoinClause struct {
	Table string
	Left  string // column reference, possibly qualified
	Right string
}

// Expr is a boolean expression over row fields, a *cmpExpr or a *binExpr,
// which the executor compiles into a tuple predicate (compilePred).
type Expr interface{ isExpr() }

func (*cmpExpr) isExpr() {}
func (*binExpr) isExpr() {}

// cmpExpr compares a column to a constant.
type cmpExpr struct {
	col string
	op  string // = != < > <= >= like
	val string
}

// binExpr combines two expressions with AND/OR.
type binExpr struct {
	op   string // and / or
	l, r Expr
}

type parser struct {
	toks []token
	i    int
}

// Parse parses a PQL query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("pql: trailing input at %d: %q", p.cur().pos, p.cur().text)
	}
	return q, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) keyword(word string) bool {
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, word) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(word string) error {
	if !p.keyword(word) {
		return fmt.Errorf("pql: expected %s at %d (got %q)", word, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	switch {
	case p.keyword("LINEAGE"):
		if err := p.expectKeyword("OF"); err != nil {
			return nil, err
		}
		id, err := p.parseStringOrIdent()
		if err != nil {
			return nil, err
		}
		return &Query{LineageOf: id}, nil
	case p.keyword("DEPENDENTS"):
		if err := p.expectKeyword("OF"); err != nil {
			return nil, err
		}
		id, err := p.parseStringOrIdent()
		if err != nil {
			return nil, err
		}
		return &Query{DependsOf: id}, nil
	case p.keyword("SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Query{Select: sel}, nil
	}
	return nil, fmt.Errorf("pql: query must start with SELECT, LINEAGE or DEPENDENTS")
}

func (p *parser) parseStringOrIdent() (string, error) {
	t := p.next()
	if t.kind != tokString && t.kind != tokIdent {
		return "", fmt.Errorf("pql: expected identifier or string at %d", t.pos)
	}
	return t.text, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	s := &SelectStmt{}
	// Columns.
	if p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, "COUNT") {
		p.i++
		for _, want := range []string{"(", "*", ")"} {
			if p.cur().kind != tokSymbol || p.cur().text != want {
				return nil, fmt.Errorf("pql: expected COUNT(*) at %d", p.cur().pos)
			}
			p.i++
		}
		s.Count = true
	} else if p.cur().kind == tokSymbol && p.cur().text == "*" {
		p.i++
	} else {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, fmt.Errorf("pql: expected column name at %d", t.pos)
			}
			s.Columns = append(s.Columns, t.text)
			if p.cur().kind == tokSymbol && p.cur().text == "," {
				p.i++
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("pql: expected table name at %d", t.pos)
	}
	s.Table = strings.ToLower(t.text)
	if p.keyword("JOIN") {
		jt := p.next()
		if jt.kind != tokIdent {
			return nil, fmt.Errorf("pql: expected JOIN table at %d", jt.pos)
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		left := p.next()
		if left.kind != tokIdent {
			return nil, fmt.Errorf("pql: expected ON column at %d", left.pos)
		}
		if p.cur().kind != tokSymbol || p.cur().text != "=" {
			return nil, fmt.Errorf("pql: expected '=' in ON at %d", p.cur().pos)
		}
		p.i++
		right := p.next()
		if right.kind != tokIdent {
			return nil, fmt.Errorf("pql: expected ON column at %d", right.pos)
		}
		s.Join = &JoinClause{Table: strings.ToLower(jt.text), Left: left.text, Right: right.text}
	}
	if p.keyword("WHERE") {
		expr, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		s.Where = expr
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("pql: expected ORDER BY column at %d", t.pos)
		}
		s.OrderBy = t.text
		if p.keyword("DESC") {
			s.Desc = true
		} else {
			p.keyword("ASC")
		}
	}
	if p.keyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("pql: expected LIMIT count at %d", t.pos)
		}
		n := 0
		if _, err := fmt.Sscanf(t.text, "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("pql: bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "or", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &binExpr{op: "and", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	if p.cur().kind == tokSymbol && p.cur().text == "(" {
		p.i++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokSymbol || p.cur().text != ")" {
			return nil, fmt.Errorf("pql: expected ')' at %d", p.cur().pos)
		}
		p.i++
		return e, nil
	}
	col := p.next()
	if col.kind != tokIdent {
		return nil, fmt.Errorf("pql: expected column in predicate at %d", col.pos)
	}
	var op string
	switch {
	case p.cur().kind == tokSymbol:
		op = p.next().text
		switch op {
		case "=", "!=", "<", ">", "<=", ">=":
		default:
			return nil, fmt.Errorf("pql: unknown operator %q", op)
		}
	case p.keyword("LIKE"):
		op = "like"
	default:
		return nil, fmt.Errorf("pql: expected operator at %d", p.cur().pos)
	}
	val := p.next()
	if val.kind != tokString && val.kind != tokNumber && val.kind != tokIdent {
		return nil, fmt.Errorf("pql: expected literal at %d", val.pos)
	}
	return &cmpExpr{col: col.text, op: op, val: val.text}, nil
}
