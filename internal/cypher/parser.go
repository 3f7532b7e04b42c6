package cypher

import (
	"fmt"
	"strconv"

	"ges/internal/catalog"
)

// Parse turns a query string into an AST.
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
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token         { return p.toks[p.pos] }
func (p *parser) next() token         { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k tokenKind) bool { return p.peek().kind == k }
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tkKeyword && t.text == kw
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("cypher: expected %s, got %s at %d", what, t, t.pos)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tkKeyword || t.text != kw {
		return fmt.Errorf("cypher: expected %s, got %s at %d", kw, t, t.pos)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	for {
		switch {
		case p.atKeyword("MATCH"):
			p.next()
			m, err := p.parseMatch()
			if err != nil {
				return nil, err
			}
			q.Matches = append(q.Matches, m)
		case p.atKeyword("WITH"):
			// Pass-through projection: WITH v1, v2 — a clause separator in
			// the supported subset; the binder keeps all variables live.
			p.next()
			for {
				if _, err := p.expect(tkIdent, "variable after WITH"); err != nil {
					return nil, err
				}
				if p.at(tkComma) {
					p.next()
					continue
				}
				break
			}
		case p.atKeyword("RETURN"):
			p.next()
			r, err := p.parseReturn()
			if err != nil {
				return nil, err
			}
			q.Return = r
			if !p.at(tkEOF) {
				t := p.peek()
				return nil, fmt.Errorf("cypher: trailing input %s at %d", t, t.pos)
			}
			if len(q.Matches) == 0 {
				return nil, fmt.Errorf("cypher: query needs at least one MATCH")
			}
			return q, nil
		default:
			t := p.peek()
			return nil, fmt.Errorf("cypher: expected MATCH, WITH or RETURN, got %s at %d", t, t.pos)
		}
	}
}

func (p *parser) parseMatch() (MatchClause, error) {
	var m MatchClause
	node, err := p.parseNode()
	if err != nil {
		return m, err
	}
	m.Nodes = append(m.Nodes, node)
	for p.at(tkDash) || p.at(tkArrowLeft) {
		rel, err := p.parseRel()
		if err != nil {
			return m, err
		}
		node, err := p.parseNode()
		if err != nil {
			return m, err
		}
		m.Rels = append(m.Rels, rel)
		m.Nodes = append(m.Nodes, node)
	}
	if p.atKeyword("WHERE") {
		p.next()
		w, err := p.parseExpr()
		if err != nil {
			return m, err
		}
		m.Where = w
	}
	return m, nil
}

func (p *parser) parseNode() (NodePat, error) {
	var n NodePat
	if _, err := p.expect(tkLParen, "'('"); err != nil {
		return n, err
	}
	if p.at(tkIdent) {
		n.Var = p.next().text
	}
	if p.at(tkColon) {
		p.next()
		t, err := p.expect(tkIdent, "label name")
		if err != nil {
			return n, err
		}
		n.Label = t.text
	}
	if _, err := p.expect(tkRParen, "')'"); err != nil {
		return n, err
	}
	if n.Var == "" {
		return n, fmt.Errorf("cypher: anonymous nodes are not supported; name the node")
	}
	return n, nil
}

// parseRel parses -[:TYPE]->, <-[:TYPE]-, -[:TYPE]-, with optional
// *min..max variable length.
func (p *parser) parseRel() (RelPat, error) {
	rel := RelPat{MinHops: 1, MaxHops: 1, Dir: catalog.Both}
	leftArrow := false
	if p.at(tkArrowLeft) {
		leftArrow = true
		p.next()
	} else if _, err := p.expect(tkDash, "'-'"); err != nil {
		return rel, err
	}
	if _, err := p.expect(tkLBracket, "'['"); err != nil {
		return rel, err
	}
	if p.at(tkIdent) { // optional relationship variable, ignored
		p.next()
	}
	if _, err := p.expect(tkColon, "':' before relationship type"); err != nil {
		return rel, err
	}
	t, err := p.expect(tkIdent, "relationship type")
	if err != nil {
		return rel, err
	}
	rel.Type = t.text
	if p.at(tkStar) {
		p.next()
		if p.at(tkInt) {
			v, err := hopBound(p.next())
			if err != nil {
				return rel, err
			}
			rel.MinHops, rel.MaxHops = v, v
			if p.at(tkDotDot) {
				p.next()
				t, err := p.expect(tkInt, "max hops")
				if err != nil {
					return rel, err
				}
				if rel.MaxHops, err = hopBound(t); err != nil {
					return rel, err
				}
			}
		} else {
			rel.MinHops, rel.MaxHops = 1, 3 // bare '*' default bound
		}
	}
	if _, err := p.expect(tkRBracket, "']'"); err != nil {
		return rel, err
	}
	if leftArrow {
		if _, err := p.expect(tkDash, "'-' after ']'"); err != nil {
			return rel, err
		}
		rel.Dir = catalog.In
		return rel, nil
	}
	switch {
	case p.at(tkArrowRight):
		p.next()
		rel.Dir = catalog.Out
	case p.at(tkDash):
		p.next()
		rel.Dir = catalog.Both
	default:
		t := p.peek()
		return rel, fmt.Errorf("cypher: expected '->' or '-' after ']', got %s at %d", t, t.pos)
	}
	return rel, nil
}

// hopBound parses a var-length hop bound: a positive integer. Zero (a match
// of the start vertex itself, which the traversal excludes) and a bound too
// large to parse are refused, not answered wrongly.
func hopBound(t token) (int, error) {
	v, err := strconv.Atoi(t.text)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("cypher: hop bound %s at %d must be a positive integer", t.text, t.pos)
	}
	return v, nil
}

func (p *parser) parseReturn() (ReturnClause, error) {
	r := ReturnClause{Skip: -1, Limit: -1}
	if p.atKeyword("DISTINCT") {
		p.next()
		r.Distinct = true
	}
	for {
		item, err := p.parseReturnItem()
		if err != nil {
			return r, err
		}
		r.Items = append(r.Items, item)
		if p.at(tkComma) {
			p.next()
			continue
		}
		break
	}
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return r, err
		}
		for {
			e, err := p.parsePrimary()
			if err != nil {
				return r, err
			}
			item := OrderItem{Expr: e}
			if p.atKeyword("DESC") {
				p.next()
				item.Desc = true
			} else if p.atKeyword("ASC") {
				p.next()
			}
			r.OrderBy = append(r.OrderBy, item)
			if p.at(tkComma) {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("SKIP") {
		p.next()
		t, err := p.expect(tkInt, "skip count")
		if err != nil {
			return r, err
		}
		r.Skip, _ = strconv.Atoi(t.text)
	}
	if p.atKeyword("LIMIT") {
		p.next()
		t, err := p.expect(tkInt, "limit count")
		if err != nil {
			return r, err
		}
		r.Limit, _ = strconv.Atoi(t.text)
	}
	return r, nil
}

var aggKeywords = map[string]AggKind{
	"COUNT": AggCount, "SUM": AggSum, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg,
}

func (p *parser) parseReturnItem() (ReturnItem, error) {
	var item ReturnItem
	if p.peek().kind == tkKeyword {
		if agg, ok := aggKeywords[p.peek().text]; ok {
			p.next()
			item.Agg = agg
			if _, err := p.expect(tkLParen, "'('"); err != nil {
				return item, err
			}
			if p.at(tkStar) {
				if item.Agg != AggCount {
					return item, fmt.Errorf("cypher: only COUNT(*) may use '*'")
				}
				p.next()
			} else {
				if p.atKeyword("DISTINCT") {
					p.next()
					if item.Agg != AggCount {
						return item, fmt.Errorf("cypher: DISTINCT only supported inside COUNT")
					}
					item.Agg = AggCountDistinct
				}
				e, err := p.parsePrimary()
				if err != nil {
					return item, err
				}
				item.Expr = e
			}
			if _, err := p.expect(tkRParen, "')'"); err != nil {
				return item, err
			}
		}
	}
	if item.Agg == AggNone {
		e, err := p.parseAdditive()
		if err != nil {
			return item, err
		}
		item.Expr = e
	}
	if p.atKeyword("AS") {
		p.next()
		t, err := p.expect(tkIdent, "alias")
		if err != nil {
			return item, err
		}
		item.Alias = t.text
	}
	return item, nil
}

// Expression grammar: Or -> And -> Not -> Cmp -> Additive -> Mul -> Primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("NOT") {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch {
	case p.at(tkEQ), p.at(tkNE), p.at(tkLT), p.at(tkLE), p.at(tkGT), p.at(tkGE):
		op := p.next().text
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return Bin{Op: op, L: l, R: r}, nil
	case p.atKeyword("IN"):
		p.next()
		if _, err := p.expect(tkLBracket, "'['"); err != nil {
			return nil, err
		}
		var list []Lit
		for !p.at(tkRBracket) {
			lit, err := p.parseLit()
			if err != nil {
				return nil, err
			}
			list = append(list, lit)
			if p.at(tkComma) {
				p.next()
			}
		}
		p.next() // ]
		return InList{X: l, List: list}, nil
	case p.atKeyword("CONTAINS"):
		p.next()
		t, err := p.expect(tkString, "string after CONTAINS")
		if err != nil {
			return nil, err
		}
		return StrPred{Op: "CONTAINS", L: l, R: t.text}, nil
	case p.atKeyword("STARTS"), p.atKeyword("ENDS"):
		op := p.next().text
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		t, err := p.expect(tkString, "string pattern")
		if err != nil {
			return nil, err
		}
		return StrPred{Op: op, L: l, R: t.text}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(tkPlus) || p.at(tkDash) {
		op := "+"
		if p.next().kind == tkDash {
			op = "-"
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.at(tkStar) || p.at(tkSlash) {
		op := "*"
		if p.next().kind == tkSlash {
			op = "/"
		}
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tkKeyword && t.text == "ID":
		p.next()
		if _, err := p.expect(tkLParen, "'(' after id"); err != nil {
			return nil, err
		}
		v, err := p.expect(tkIdent, "variable inside id()")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return IDRef{Var: v.text}, nil
	case t.kind == tkIdent:
		p.next()
		if p.at(tkDot) {
			p.next()
			prop, err := p.expect(tkIdent, "property name")
			if err != nil {
				return nil, err
			}
			return PropRef{Var: t.text, Prop: prop.text}, nil
		}
		return VarRef{Var: t.text}, nil
	case t.kind == tkLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return p.parseLit()
	}
}

func (p *parser) parseLit() (Lit, error) {
	t := p.next()
	switch t.kind {
	case tkInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Lit{}, fmt.Errorf("cypher: bad integer %q", t.text)
		}
		return Lit{Kind: LitInt, I: v}, nil
	case tkFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Lit{}, fmt.Errorf("cypher: bad float %q", t.text)
		}
		return Lit{Kind: LitFloat, F: v}, nil
	case tkString:
		return Lit{Kind: LitString, S: t.text}, nil
	case tkParam:
		k, err := strconv.Atoi(t.text)
		if err != nil || k < 1 {
			return Lit{}, fmt.Errorf("cypher: bad parameter $%s at %d", t.text, t.pos)
		}
		return Lit{Param: k}, nil
	case tkKeyword:
		if t.text == "TRUE" {
			return Lit{Kind: LitBool, B: true}, nil
		}
		if t.text == "FALSE" {
			return Lit{Kind: LitBool, B: false}, nil
		}
	}
	return Lit{}, fmt.Errorf("cypher: expected literal, got %s at %d", t, t.pos)
}
