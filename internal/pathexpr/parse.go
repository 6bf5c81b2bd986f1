package pathexpr

import (
	"fmt"
	"strconv"
)

// Grammar (sequence binds loosest — Figure 1 of Bloom's paper writes
// "{read} , (openwrite ; write)", parenthesizing a sequence used as a
// selection alternative, which fixes the relative precedence):
//
//	pathlist := path+
//	path     := "path" [ NUMBER ":" ] expr "end"
//	expr     := alt { ";" alt }
//	alt      := prim { "," prim }
//	prim     := IDENT | "{" expr "}" | "(" expr ")"
//
// The optional NUMBER prefix is the *numeric operator* of the second-
// generation path expressions (Flon–Habermann [10], discussed in Bloom's
// §5.1 as the fix for explicit synchronization-state and history
// information): "path n : e end" permits up to n cycles of e to be in
// progress simultaneously. "path e end" is "path 1 : e end". With it the
// bounded buffer is directly expressible — path n : (deposit ; remove)
// end — which the 1974 dialect cannot do (experiment E1).
type parser struct {
	lex  *lexer
	tok  token
	src  string
	err  error
	base int // offset of the current path's "path" keyword
}

// Parse parses a single "path … end" declaration.
func Parse(src string) (*Path, error) {
	paths, err := ParseList(src)
	if err != nil {
		return nil, err
	}
	if len(paths) != 1 {
		return nil, &SyntaxError{0, fmt.Sprintf("expected exactly one path, found %d", len(paths))}
	}
	return paths[0], nil
}

// ParseList parses one or more "path … end" declarations from src.
func ParseList(src string) ([]*Path, error) {
	p := &parser{lex: &lexer{src: src}, src: src}
	p.advance()
	if p.err != nil {
		return nil, p.err
	}
	var out []*Path
	for p.tok.kind != tokEOF {
		path := p.parsePath()
		if p.err != nil {
			return nil, p.err
		}
		out = append(out, path)
	}
	if len(out) == 0 {
		return nil, &SyntaxError{0, "no path declarations"}
	}
	return out, nil
}

// MustParseList is ParseList panicking on error, for statically known
// sources (the solution packages' literal paths).
func MustParseList(src string) []*Path {
	paths, err := ParseList(src)
	if err != nil {
		panic(err)
	}
	return paths
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	tok, err := p.lex.next()
	if err != nil {
		p.err = err
		return
	}
	p.tok = tok
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = &SyntaxError{p.tok.pos, fmt.Sprintf(format, args...)}
	}
}

func (p *parser) expect(kind tokKind) token {
	tok := p.tok
	if tok.kind != kind {
		p.fail("expected %s, found %s %q", kind, tok.kind, tok.text)
		return tok
	}
	p.advance()
	return tok
}

func (p *parser) parsePath() *Path {
	start := p.tok.pos
	p.base = start
	p.expect(tokPath)
	bound := int64(1)
	if p.tok.kind == tokNumber {
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil || n < 1 {
			p.fail("numeric operator bound %q must be a positive integer", p.tok.text)
			return nil
		}
		bound = n
		p.advance()
		p.expect(tokColon)
		if p.err != nil {
			return nil
		}
	}
	expr := p.parseExpr()
	endTok := p.expect(tokEnd)
	if p.err != nil {
		return nil
	}
	return &Path{
		Bound:  bound,
		Expr:   expr,
		Source: p.src[start : endTok.pos+len(endTok.text)],
	}
}

func (p *parser) parseExpr() Node {
	first := p.parseAlt()
	if p.err != nil {
		return nil
	}
	if p.tok.kind != tokSemi {
		return first
	}
	seq := &Seq{Elems: []Node{first}}
	for p.tok.kind == tokSemi {
		p.advance()
		e := p.parseAlt()
		if p.err != nil {
			return nil
		}
		seq.Elems = append(seq.Elems, e)
	}
	return seq
}

func (p *parser) parseAlt() Node {
	first := p.parsePrim()
	if p.err != nil {
		return nil
	}
	if p.tok.kind != tokComma {
		return first
	}
	sel := &Sel{Alts: []Node{first}}
	for p.tok.kind == tokComma {
		p.advance()
		a := p.parsePrim()
		if p.err != nil {
			return nil
		}
		sel.Alts = append(sel.Alts, a)
	}
	return sel
}

func (p *parser) parsePrim() Node {
	if p.err != nil {
		// Stop at the first error: advance no longer moves, so the "{"
		// and "(" cases below would recurse on the same token forever.
		return nil
	}
	switch p.tok.kind {
	case tokIdent:
		name := p.tok.text
		p.advance()
		return &OpRef{Name: name}
	case tokLBrace:
		p.advance()
		inner := p.parseExpr()
		p.expect(tokRBrace)
		if p.err != nil {
			return nil
		}
		return &Burst{Inner: inner}
	case tokLParen:
		p.advance()
		inner := p.parseExpr()
		p.expect(tokRParen)
		if p.err != nil {
			return nil
		}
		return inner
	default:
		p.fail(`expected operation, "{", or "(", found %s %q`, p.tok.kind, p.tok.text)
		return nil
	}
}
