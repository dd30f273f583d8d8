package xq

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"vxml/internal/pathindex"
	"vxml/internal/pred"
)

// Parse parses a complete program (function declarations followed by a body
// expression) in the supported grammar of Appendix A. Text that is not
// valid UTF-8 is refused at its first bad byte, as documents are, so every
// value a view constructs is valid UTF-8.
func Parse(input string) (*Query, error) {
	if !utf8.ValidString(input) {
		return nil, invalidUTF8(input)
	}
	p := &parser{lex: newLexer(input), funcs: map[string]*FuncDecl{}}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse for tests and examples; it panics on error.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

// ---------------------------------------------------------------- lexer --

type tokenKind int

const (
	tEOF tokenKind = iota
	tIdent
	tVar    // $name
	tString // 'lit' or "lit"
	tNumber
	tSlash   // /
	tDSlash  // //
	tLBrack  // [
	tRBrack  // ]
	tLParen  // (
	tRParen  // )
	tLBrace  // {
	tRBrace  // }
	tComma   // ,
	tDot     // .
	tEq      // =
	tLt      // <
	tGt      // >
	tAssign  // :=
	tAmp     // &
	tPipe    // |
	tLtSlash // </
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	input string
	pos   int
	toks  []token // small lookahead buffer
}

func newLexer(input string) *lexer { return &lexer{input: input} }

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// XQuery comments (: ... :), possibly nested.
		if c == '(' && l.pos+1 < len(l.input) && l.input[l.pos+1] == ':' {
			depth := 1
			l.pos += 2
			for l.pos < len(l.input) && depth > 0 {
				if strings.HasPrefix(l.input[l.pos:], "(:") {
					depth++
					l.pos += 2
				} else if strings.HasPrefix(l.input[l.pos:], ":)") {
					depth--
					l.pos += 2
				} else {
					l.pos++
				}
			}
			continue
		}
		return
	}
}

func (l *lexer) scan() token {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.input) {
		return token{kind: tEOF, pos: start}
	}
	c := l.input[l.pos]
	switch {
	case c == '/':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '/' {
			l.pos += 2
			return token{tDSlash, "//", start}
		}
		l.pos++
		return token{tSlash, "/", start}
	case c == '<':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '/' {
			l.pos += 2
			return token{tLtSlash, "</", start}
		}
		l.pos++
		return token{tLt, "<", start}
	case c == ':':
		if l.pos+1 < len(l.input) && l.input[l.pos+1] == '=' {
			l.pos += 2
			return token{tAssign, ":=", start}
		}
		l.pos++
		return token{tIdent, ":", start} // lone colon; rejected by parser
	case c == '$':
		l.pos++
		s := l.pos
		for l.pos < len(l.input) && isIdentChar(l.input[l.pos]) {
			l.pos++
		}
		return token{tVar, l.input[s:l.pos], start}
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		s := l.pos
		for l.pos < len(l.input) && l.input[l.pos] != quote {
			l.pos++
		}
		text := l.input[s:l.pos]
		if l.pos < len(l.input) {
			l.pos++ // closing quote
		}
		return token{tString, text, start}
	case c >= '0' && c <= '9':
		s := l.pos
		for l.pos < len(l.input) && (l.input[l.pos] >= '0' && l.input[l.pos] <= '9' || l.input[l.pos] == '.') {
			// a trailing dot is a path dot, not part of the number
			if l.input[l.pos] == '.' &&
				(l.pos+1 >= len(l.input) || l.input[l.pos+1] < '0' || l.input[l.pos+1] > '9') {
				break
			}
			l.pos++
		}
		return token{tNumber, l.input[s:l.pos], start}
	case isIdentStart(c):
		s := l.pos
		for l.pos < len(l.input) && isIdentChar(l.input[l.pos]) {
			l.pos++
		}
		return token{tIdent, l.input[s:l.pos], start}
	}
	l.pos++
	switch c {
	case '[':
		return token{tLBrack, "[", start}
	case ']':
		return token{tRBrack, "]", start}
	case '(':
		return token{tLParen, "(", start}
	case ')':
		return token{tRParen, ")", start}
	case '{':
		return token{tLBrace, "{", start}
	case '}':
		return token{tRBrace, "}", start}
	case ',':
		return token{tComma, ",", start}
	case '.':
		return token{tDot, ".", start}
	case '=':
		return token{tEq, "=", start}
	case '>':
		return token{tGt, ">", start}
	case '&':
		return token{tAmp, "&", start}
	case '|':
		return token{tPipe, "|", start}
	}
	return token{tEOF, string(c), start}
}

// peek returns the i-th upcoming token without consuming it.
func (l *lexer) peek(i int) token {
	for len(l.toks) <= i {
		l.toks = append(l.toks, l.scan())
	}
	return l.toks[i]
}

// next consumes and returns the next token.
func (l *lexer) next() token {
	t := l.peek(0)
	l.toks = l.toks[1:]
	return t
}

// --------------------------------------------------------------- parser --

type parser struct {
	lex   *lexer
	funcs map[string]*FuncDecl
	depth int // nesting levels entered, see nest
}

// maxNesting bounds how deeply expressions may nest. The parser recurses
// once per level, and so do the analyses and the evaluator over the AST it
// builds; without a bound a few megabytes of '(' overflow the goroutine
// stack, a fatal error no caller can recover from. A level is an
// expression, path or element constructor inside another, or a step or
// filter applied to a path (each wraps the path in one more AST node), so
// a parenthesis costs two.
const maxNesting = 1000

// nest enters one more nesting level, failing past maxNesting. A function
// that nests first defers p.leave(p.depth), which undoes its levels.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errf("expression nested deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *parser) leave(depth int) { p.depth = depth }

// ParseError reports a syntax error with the byte offset it was detected
// at, so callers (e.g. an HTTP API) can surface machine-readable
// diagnostics instead of matching message strings. Retrieve it with
// errors.As.
type ParseError struct {
	// Pos is the byte offset into the query text where parsing failed.
	Pos int
	// Msg describes what the parser expected or found.
	Msg string
}

// Error renders the historical message format ("xq: parse error at offset
// N: msg").
func (e *ParseError) Error() string {
	return fmt.Sprintf("xq: parse error at offset %d: %s", e.Pos, e.Msg)
}

// invalidUTF8 reports the first byte of s that does not start a valid
// UTF-8 sequence; s must hold one.
func invalidUTF8(s string) *ParseError {
	i := 0
	for {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			return &ParseError{Pos: i, Msg: fmt.Sprintf("invalid UTF-8 byte %#x", s[i])}
		}
		i += n
	}
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.lex.peek(0).pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.lex.peek(0)
	if t.kind != kind {
		return t, p.errf("expected %s, found %s", what, t)
	}
	return p.lex.next(), nil
}

func (p *parser) isKeyword(kw string) bool {
	t := p.lex.peek(0)
	return t.kind == tIdent && t.text == kw
}

func (p *parser) parseQuery() (*Query, error) {
	for p.isKeyword("declare") {
		fd, err := p.parseFuncDecl()
		if err != nil {
			return nil, err
		}
		if _, dup := p.funcs[fd.Name]; dup {
			return nil, p.errf("duplicate function %q", fd.Name)
		}
		p.funcs[fd.Name] = fd
	}
	body, err := p.parseExprSequence()
	if err != nil {
		return nil, err
	}
	if t := p.lex.peek(0); t.kind != tEOF {
		return nil, p.errf("unexpected trailing input %s", t)
	}
	return &Query{Functions: p.funcs, Body: body}, nil
}

func (p *parser) parseFuncDecl() (*FuncDecl, error) {
	p.lex.next() // declare
	if !p.isKeyword("function") {
		return nil, p.errf("expected 'function' after 'declare'")
	}
	p.lex.next()
	name, err := p.expect(tIdent, "function name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return nil, err
	}
	var params []string
	for p.lex.peek(0).kind == tVar {
		params = append(params, p.lex.next().text)
		if p.lex.peek(0).kind == tComma {
			p.lex.next()
		}
	}
	if _, err := p.expect(tRParen, "')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrace, "'{'"); err != nil {
		return nil, err
	}
	body, err := p.parseExprSequence()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRBrace, "'}'"); err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name.text, Params: params, Body: body}, nil
}

// parseExprSequence parses Expr (',' Expr)*.
func (p *parser) parseExprSequence() (Expr, error) {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.lex.peek(0).kind != tComma {
		return first, nil
	}
	items := []Expr{first}
	for p.lex.peek(0).kind == tComma {
		p.lex.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &SeqExpr{Items: items}, nil
}

func (p *parser) parseExpr() (Expr, error) {
	defer p.leave(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	t := p.lex.peek(0)
	switch {
	case t.kind == tIdent && (t.text == "for" || t.text == "let"):
		return p.parseFLWOR()
	case t.kind == tIdent && t.text == "if":
		return p.parseCond()
	case t.kind == tLt:
		return p.parseElementCtor()
	default:
		return p.parsePath()
	}
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWORExpr{}
	for {
		t := p.lex.peek(0)
		if t.kind != tIdent || (t.text != "for" && t.text != "let") {
			break
		}
		p.lex.next()
		isLet := t.text == "let"
		v, err := p.expect(tVar, "variable")
		if err != nil {
			return nil, err
		}
		// 'for $v in e'; 'let $v := e' (the paper's grammar also writes
		// 'let $v in e', which we accept).
		bind := p.lex.peek(0)
		switch {
		case bind.kind == tAssign:
			p.lex.next()
		case bind.kind == tIdent && bind.text == "in":
			p.lex.next()
		default:
			return nil, p.errf("expected 'in' or ':=' after $%s", v.text)
		}
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fl.Clauses = append(fl.Clauses, ForLetClause{IsLet: isLet, Var: v.text, In: in})
	}
	if len(fl.Clauses) == 0 {
		return nil, p.errf("FLWOR requires at least one for/let clause")
	}
	if p.isKeyword("where") {
		p.lex.next()
		w, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if !p.isKeyword("return") {
		return nil, p.errf("expected 'return', found %s", p.lex.peek(0))
	}
	p.lex.next()
	ret, err := p.parseReturnExpr()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

// parseReturnExpr parses RetExpr: an expression, an element constructor, or
// a comma sequence of these.
func (p *parser) parseReturnExpr() (Expr, error) {
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.lex.peek(0).kind != tComma {
		return first, nil
	}
	items := []Expr{first}
	for p.lex.peek(0).kind == tComma {
		p.lex.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &SeqExpr{Items: items}, nil
}

func (p *parser) parseCond() (Expr, error) {
	p.lex.next() // if
	cond, err := p.parsePred()
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("then") {
		return nil, p.errf("expected 'then'")
	}
	p.lex.next()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.isKeyword("else") {
		return nil, p.errf("expected 'else'")
	}
	p.lex.next()
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: then, Else: els}, nil
}

// parseElementCtor parses '<tag>' children '</tag>'. Children are brace
// expressions and nested constructors, optionally comma-separated as in the
// paper's Figure 2.
func (p *parser) parseElementCtor() (Expr, error) {
	defer p.leave(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tLt, "'<'"); err != nil {
		return nil, err
	}
	tag, err := p.expect(tIdent, "tag name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tGt, "'>'"); err != nil {
		return nil, err
	}
	ctor := &ElementExpr{Tag: tag.text}
	for {
		t := p.lex.peek(0)
		switch t.kind {
		case tLBrace:
			p.lex.next()
			e, err := p.parseExprSequence()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrace, "'}'"); err != nil {
				return nil, err
			}
			ctor.Children = append(ctor.Children, e)
		case tLt:
			e, err := p.parseElementCtor()
			if err != nil {
				return nil, err
			}
			ctor.Children = append(ctor.Children, e)
		case tComma:
			p.lex.next() // separators between children, as in Figure 2
		case tLtSlash:
			p.lex.next()
			closeTag, err := p.expect(tIdent, "closing tag name")
			if err != nil {
				return nil, err
			}
			if closeTag.text != tag.text {
				return nil, p.errf("mismatched closing tag </%s> for <%s>", closeTag.text, tag.text)
			}
			if _, err := p.expect(tGt, "'>'"); err != nil {
				return nil, err
			}
			return ctor, nil
		default:
			return nil, p.errf("unexpected %s inside <%s> constructor", t, tag.text)
		}
	}
}

// parsePred parses PredExpr: PathExpr, PathExpr Comp (Literal|PathExpr), or
// Expr ftcontains('k' & 'k' ...).
func (p *parser) parsePred() (Expr, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	t := p.lex.peek(0)
	switch {
	case t.kind == tEq || t.kind == tLt || t.kind == tGt:
		p.lex.next()
		var op pred.Op
		switch t.kind {
		case tEq:
			op = pred.Eq
		case tLt:
			op = pred.Lt
		default:
			op = pred.Gt
		}
		right, err := p.parseComparand()
		if err != nil {
			return nil, err
		}
		return &CmpExpr{Left: left, Op: op, Right: right}, nil
	case t.kind == tIdent && t.text == "ftcontains":
		p.lex.next()
		return p.parseFTContains(left)
	}
	return left, nil
}

func (p *parser) parseComparand() (Expr, error) {
	t := p.lex.peek(0)
	if t.kind == tString || t.kind == tNumber {
		p.lex.next()
		return NewLiteral(t.text), nil
	}
	return p.parsePath()
}

func (p *parser) parseFTContains(target Expr) (Expr, error) {
	if _, err := p.expect(tLParen, "'(' after ftcontains"); err != nil {
		return nil, err
	}
	ft := &FTContainsExpr{Target: target, Conjunctive: true}
	sawPipe, sawAmp := false, false
	for {
		kw, err := p.expect(tString, "quoted keyword")
		if err != nil {
			return nil, err
		}
		ft.Keywords = append(ft.Keywords, strings.ToLower(kw.text))
		t := p.lex.peek(0)
		if t.kind == tAmp {
			sawAmp = true
			p.lex.next()
			continue
		}
		if t.kind == tPipe {
			sawPipe = true
			p.lex.next()
			continue
		}
		break
	}
	if sawAmp && sawPipe {
		return nil, p.errf("ftcontains cannot mix '&' and '|'")
	}
	ft.Conjunctive = !sawPipe
	if _, err := p.expect(tRParen, "')'"); err != nil {
		return nil, err
	}
	return ft, nil
}

// parsePath parses PathExpr (with filters) and function calls.
func (p *parser) parsePath() (Expr, error) {
	defer p.leave(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	base, err := p.parsePathBase()
	if err != nil {
		return nil, err
	}
	for {
		t := p.lex.peek(0)
		switch t.kind {
		case tSlash, tDSlash:
			var steps []pathindex.Step
			for {
				t := p.lex.peek(0)
				if t.kind != tSlash && t.kind != tDSlash {
					break
				}
				p.lex.next()
				axis := pathindex.Child
				if t.kind == tDSlash {
					axis = pathindex.Descendant
				}
				tag, err := p.expect(tIdent, "tag name after "+t.text)
				if err != nil {
					return nil, err
				}
				if isReservedWord(tag.text) {
					return nil, p.errf("reserved word %q used as tag name", tag.text)
				}
				steps = append(steps, pathindex.Step{Axis: axis, Tag: tag.text})
			}
			if err := p.nest(); err != nil {
				return nil, err
			}
			base = &StepExpr{Base: base, Steps: steps}
		case tLBrack:
			if err := p.nest(); err != nil {
				return nil, err
			}
			p.lex.next()
			cond, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRBrack, "']'"); err != nil {
				return nil, err
			}
			base = &FilterExpr{Base: base, Pred: cond}
		default:
			return base, nil
		}
	}
}

func isReservedWord(s string) bool {
	switch s {
	case "for", "let", "in", "where", "return", "if", "then", "else",
		"declare", "function", "ftcontains":
		return true
	}
	return false
}

func (p *parser) parsePathBase() (Expr, error) {
	t := p.lex.peek(0)
	switch t.kind {
	case tVar:
		p.lex.next()
		return &VarExpr{Name: t.text}, nil
	case tDot:
		p.lex.next()
		return &DotExpr{}, nil
	case tString, tNumber:
		p.lex.next()
		return NewLiteral(t.text), nil
	case tLParen:
		p.lex.next()
		if p.lex.peek(0).kind == tRParen { // '()' empty sequence
			p.lex.next()
			return &SeqExpr{}, nil
		}
		e, err := p.parseExprSequence()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tIdent:
		if isReservedWord(t.text) {
			return nil, p.errf("unexpected keyword %q", t.text)
		}
		if t.text == "fn:doc" || t.text == "doc" || t.text == "fn:collection" {
			p.lex.next()
			if _, err := p.expect(tLParen, "'('"); err != nil {
				return nil, err
			}
			name, err := p.parseDocName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tRParen, "')'"); err != nil {
				return nil, err
			}
			return &DocExpr{Name: name}, nil
		}
		if p.lex.peek(1).kind == tLParen { // function call
			p.lex.next()
			p.lex.next() // '('
			call := &CallExpr{Name: t.text}
			for p.lex.peek(0).kind != tRParen {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.lex.peek(0).kind == tComma {
					p.lex.next()
				}
			}
			p.lex.next() // ')'
			return call, nil
		}
		// Bare tag name: shorthand for a child step off the context item,
		// e.g. the predicate [year > 1995] meaning [./year > 1995].
		p.lex.next()
		return &StepExpr{Base: &DotExpr{}, Steps: []pathindex.Step{{Axis: pathindex.Child, Tag: t.text}}}, nil
	}
	return nil, p.errf("unexpected %s at start of path expression", t)
}

// parseDocName reads a document name, which may be quoted or a bare name
// containing dots such as books.xml.
func (p *parser) parseDocName() (string, error) {
	t := p.lex.peek(0)
	if t.kind == tString {
		p.lex.next()
		return t.text, nil
	}
	// bare name: identifiers, dots and numbers until ')'
	var parts []string
	for {
		t := p.lex.peek(0)
		if t.kind == tRParen || t.kind == tEOF {
			break
		}
		if t.kind != tIdent && t.kind != tDot && t.kind != tNumber {
			return "", p.errf("invalid document name token %s", t)
		}
		p.lex.next()
		parts = append(parts, t.text)
	}
	if len(parts) == 0 {
		return "", p.errf("empty document name")
	}
	return strings.Join(parts, ""), nil
}
