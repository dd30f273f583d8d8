package xq

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics feeds the parser random byte soup and mutated
// fragments of valid queries; it must return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	pieces := []string{
		"for", "let", "$x", "in", "where", "return", "fn:doc(", ")",
		"'lit'", "//", "/", "[", "]", "<a>", "</a>", "{", "}", "=", ">",
		"<", "ftcontains", "(", ",", ".", ":=", "&", "|", "declare",
		"function", "if", "then", "else", "tag", "1995", "$", `"q"`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
			b.WriteByte(' ')
		}
		_, _ = Parse(b.String()) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParserRandomBytes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, r.Intn(120))
		for i := range buf {
			buf[i] = byte(32 + r.Intn(95))
		}
		_, _ = Parse(string(buf)) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParserTruncatedQueries(t *testing.T) {
	full := `declare function f($x) { for $r in fn:doc(reviews.xml)/reviews//review where $r/isbn = $x return $r/content } for $b in fn:doc(books.xml)/books//book[year > 1995] return <e>{$b/title}{f($b/isbn)}</e>`
	for i := 0; i < len(full); i++ {
		_, _ = Parse(full[:i]) // must not panic at any truncation point
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Parse("$v ftcontains('unterminated"); err == nil {
		t.Error("unterminated string should error")
	}
}

func TestDeepNestingNoStackOverflow(t *testing.T) {
	var b strings.Builder
	depth := 300
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	b.WriteString("{$x}")
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	if _, err := Parse("for $x in fn:doc(d.xml)/d return " + b.String()); err != nil {
		t.Errorf("deep constructor nesting should parse: %v", err)
	}
}

// TestParseRejectsDeepNesting: input nested past maxNesting is a
// *ParseError, not a recursion as deep as the input. A parenthesis costs
// two levels (an expression and a path), so 499 nest within the limit and
// 500 do not; a filter costs one; and 100,000 parentheses fail as fast as
// 500, where an unbounded parser overflows the goroutine stack.
func TestParseRejectsDeepNesting(t *testing.T) {
	parens := func(n int) string {
		return strings.Repeat("(", n) + "$x" + strings.Repeat(")", n)
	}
	if _, err := Parse(parens(maxNesting/2 - 1)); err != nil {
		t.Fatalf("%d parentheses, within the limit: %v", maxNesting/2-1, err)
	}
	for _, c := range []struct{ name, input string }{
		{"parentheses just over the limit", parens(maxNesting / 2)},
		{"100,000 parentheses", parens(100_000)},
		{"filters", "$x" + strings.Repeat("[.]", maxNesting)},
		{"steps and filters", "$x" + strings.Repeat("/a[b]", maxNesting/2)},
		{"constructors", "for $x in fn:doc(d.xml)/d return " +
			strings.Repeat("<a>", maxNesting) + "{$x}" + strings.Repeat("</a>", maxNesting)},
		{"for clauses", strings.Repeat("for $x in ", maxNesting) + "$y" + strings.Repeat(" return $x", maxNesting)},
	} {
		q, err := Parse(c.input)
		var pe *ParseError
		if !errors.As(err, &pe) || q != nil {
			t.Errorf("%s: err = %v (nil query: %v), want a *ParseError", c.name, err, q == nil)
			continue
		}
		if !strings.Contains(pe.Msg, "nested deeper than") || pe.Pos < 0 || pe.Pos > len(c.input) {
			t.Errorf("%s: %v", c.name, pe)
		}
	}
}
