package piglet

import (
	"fmt"
	"strconv"
	"strings"

	"stark"
	"stark/internal/plan"
)

// Parse turns a script into statements.
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Statement
	for !p.at(tokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token          { return p.toks[p.pos] }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind) (token, error) {
	if !p.at(k) {
		return token{}, fmt.Errorf("piglet: line %d: expected %v, got %q", p.cur().line, k, p.cur().text)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !keywordIs(p.cur(), kw) {
		return fmt.Errorf("piglet: line %d: expected %s, got %q", p.cur().line, strings.ToUpper(kw), p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("piglet: line %d: bad number %q", t.line, t.text)
	}
	return v, nil
}

func (p *parser) intNumber() (int, error) {
	v, err := p.number()
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

// statement parses one ';'-terminated statement.
func (p *parser) statement() (Statement, error) {
	t := p.cur()
	switch {
	case keywordIs(t, "dump"):
		p.advance()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		return Dump{Name: name.text, Line: t.line}, nil
	case keywordIs(t, "describe"):
		p.advance()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		return Describe{Name: name.text, Line: t.line}, nil
	case keywordIs(t, "explain"):
		p.advance()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		return Explain{Name: name.text, Line: t.line}, nil
	case keywordIs(t, "store"):
		p.advance()
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("into"); err != nil {
			return nil, err
		}
		path, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		return Store{Name: name.text, Path: path.text, Line: t.line}, nil
	case t.kind == tokIdent:
		target := p.advance()
		if _, err := p.expect(tokEquals); err != nil {
			return nil, err
		}
		op, err := p.operator()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		return Assign{Target: target.text, Op: op, Line: t.line}, nil
	default:
		return nil, fmt.Errorf("piglet: line %d: unexpected %q at statement start", t.line, t.text)
	}
}

// operator parses the right-hand side of an assignment.
func (p *parser) operator() (Operator, error) {
	t := p.cur()
	switch {
	case keywordIs(t, "load"):
		p.advance()
		path, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		return Load{Path: path.text}, nil

	case keywordIs(t, "filter"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		// Lookahead distinguishes the two filter forms: a field
		// comparison (ident followed by a comparison operator) versus a
		// spatio-temporal predicate (ident followed by '(').
		if p.at(tokIdent) && p.toks[p.pos+1].kind == tokOp {
			return p.attrFilter(input.text)
		}
		pred, err := p.filterPredicate()
		if err != nil {
			return nil, err
		}
		return Filter{Input: input.text, Pred: pred}, nil

	case keywordIs(t, "partition"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		kind := p.cur()
		if !keywordIs(kind, "grid") && !keywordIs(kind, "bsp") {
			return nil, fmt.Errorf("piglet: line %d: expected GRID or BSP, got %q", kind.line, kind.text)
		}
		p.advance()
		param, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return PartitionOp{Input: input.text, Kind: strings.ToLower(kind.text), Param: param}, nil

	case keywordIs(t, "index"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("order"); err != nil {
			return nil, err
		}
		order, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return IndexOp{Input: input.text, Order: order}, nil

	case keywordIs(t, "knn"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("query"); err != nil {
			return nil, err
		}
		wkt, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("k"); err != nil {
			return nil, err
		}
		k, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return KNNOp{Input: input.text, WKT: wkt.text, K: k}, nil

	case keywordIs(t, "cluster"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("eps"); err != nil {
			return nil, err
		}
		eps, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("minpts"); err != nil {
			return nil, err
		}
		minPts, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return ClusterOp{Input: input.text, Eps: eps, MinPts: minPts}, nil

	case keywordIs(t, "join"):
		p.advance()
		left, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		right, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		pred, err := p.joinPredicate()
		if err != nil {
			return nil, err
		}
		return JoinOp{Left: left.text, Right: right.text, Pred: pred}, nil

	case keywordIs(t, "limit"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		n, err := p.intNumber()
		if err != nil {
			return nil, err
		}
		return Limit{Input: input.text, N: n}, nil

	case keywordIs(t, "sample"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		frac, err := p.number()
		if err != nil {
			return nil, err
		}
		op := SampleOp{Input: input.text, Fraction: frac, Seed: 42}
		if keywordIs(p.cur(), "seed") {
			p.advance()
			s, err := p.number()
			if err != nil {
				return nil, err
			}
			op.Seed = int64(s)
		}
		return op, nil

	case keywordIs(t, "distinct"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return DistinctOp{Input: input.text}, nil

	case keywordIs(t, "union"):
		p.advance()
		left, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		right, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		return UnionOp{Left: left.text, Right: right.text}, nil

	case keywordIs(t, "buffer"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("radius"); err != nil {
			return nil, err
		}
		r, err := p.number()
		if err != nil {
			return nil, err
		}
		return BufferOp{Input: input.text, Radius: r}, nil

	case keywordIs(t, "groupcount"):
		p.advance()
		input, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		field, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		f := strings.ToLower(field.text)
		if f != "category" && f != "cluster" {
			return nil, fmt.Errorf("piglet: line %d: GROUPCOUNT supports BY category or BY cluster, got %q",
				field.line, field.text)
		}
		return GroupCount{Input: input.text, Field: f}, nil

	default:
		return nil, fmt.Errorf("piglet: line %d: unknown operator %q", t.line, t.text)
	}
}

// attrFilter parses the field-comparison form of FILTER after the
// lookahead decided for it: field <op> literal.
func (p *parser) attrFilter(input string) (Operator, error) {
	field, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	op, err := p.expect(tokOp)
	if err != nil {
		return nil, err
	}
	if op.text == "!=" {
		return nil, fmt.Errorf("piglet: line %d: != is not supported in FILTER (use two filters or ==)", op.line)
	}
	var val any
	switch v := p.cur(); {
	case v.kind == tokString:
		p.advance()
		val = v.text
	case v.kind == tokNumber:
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		val = n
	case keywordIs(v, "true"):
		p.advance()
		val = true
	case keywordIs(v, "false"):
		p.advance()
		val = false
	default:
		return nil, fmt.Errorf("piglet: line %d: expected a number, 'string' or true/false after %s, got %q",
			v.line, op.text, v.text)
	}
	return AttrFilter{Input: input, Field: strings.ToLower(field.text), Op: op.text, Value: val}, nil
}

// windowPredicate reports whether kind names a predicate taking an
// optional time window: every named predicate but withindistance.
func windowPredicate(kind string) bool {
	p, err := stark.ParsePredicate(kind, 0)
	return err == nil && p.Kind() != plan.WithinDistance
}

// filterPredicate parses KIND('wkt' [, begin, end]) or
// WITHINDISTANCE('wkt', dist).
func (p *parser) filterPredicate() (Predicate, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return Predicate{}, err
	}
	kind := strings.ToLower(t.text)
	if _, err := p.expect(tokLParen); err != nil {
		return Predicate{}, err
	}
	wkt, err := p.expect(tokString)
	if err != nil {
		return Predicate{}, err
	}
	pred := Predicate{Kind: kind, WKT: wkt.text}
	switch {
	case kind == "withindistance":
		if _, err := p.expect(tokComma); err != nil {
			return Predicate{}, err
		}
		d, err := p.number()
		if err != nil {
			return Predicate{}, err
		}
		pred.Distance = d
		if p.at(tokComma) {
			p.advance()
			b, err := p.number()
			if err != nil {
				return Predicate{}, err
			}
			if _, err := p.expect(tokComma); err != nil {
				return Predicate{}, err
			}
			e, err := p.number()
			if err != nil {
				return Predicate{}, err
			}
			pred.HasTime = true
			pred.Begin, pred.End = int64(b), int64(e)
		}
	case windowPredicate(kind):
		if p.at(tokComma) {
			p.advance()
			b, err := p.number()
			if err != nil {
				return Predicate{}, err
			}
			if _, err := p.expect(tokComma); err != nil {
				return Predicate{}, err
			}
			e, err := p.number()
			if err != nil {
				return Predicate{}, err
			}
			pred.HasTime = true
			pred.Begin, pred.End = int64(b), int64(e)
		}
	default:
		return Predicate{}, fmt.Errorf("piglet: line %d: unknown predicate %q", t.line, t.text)
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Predicate{}, err
	}
	return pred, nil
}

// joinPredicate parses INTERSECTS | CONTAINS | CONTAINEDBY |
// WITHINDISTANCE dist.
func (p *parser) joinPredicate() (Predicate, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return Predicate{}, err
	}
	kind := strings.ToLower(t.text)
	switch {
	case kind == "withindistance":
		d, err := p.number()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: kind, Distance: d}, nil
	case windowPredicate(kind):
		return Predicate{Kind: kind}, nil
	default:
		return Predicate{}, fmt.Errorf("piglet: line %d: unknown join predicate %q", t.line, t.text)
	}
}
