package xq

import (
	"errors"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseQuery throws arbitrary byte strings at the XQuery parser and
// pins its total-function contract: it never panics, a nil error always
// comes with a query, and every syntax error is a *ParseError whose byte
// offset lands inside (or one past) the input — the API the HTTP layer
// relies on to render machine-readable diagnostics.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		// The grammar's happy paths, shaped like the shipped view suite.
		`for $a in fn:doc(books.xml)/books//article return <r>{$a/bdy}</r>`,
		`for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1993 return <r>{$a/fm/tl}</r>`,
		`for $a in fn:doc(a.xml)/x//y return <r>{$a/t}, {for $b in fn:doc(b.xml)/p//q where $b/n = $a/m return $b/v}</r>`,
		`declare function local:f($x) { $x/title }; for $a in fn:doc(d.xml)//e return local:f($a)`,
		`let $n := fn:doc(d.xml)//name return <out>{$n}</out>`,
		// Near-misses that must fail cleanly.
		`for $a in`,
		`for $a in fn:doc(books.xml)/books//article return`,
		`return $x`,
		`for $a in fn:doc(books.xml)//a return <r>{$a`,
		`for $$ in x return 1`,
		"for $a in fn:doc(b.xml)//x return \x00",
		// Invalid UTF-8 in a string literal is refused at the bad byte.
		"for $p in fn:doc(d.xml)/r/p return <hit>{\"\xff needle\"}, {$p}</hit>",
		"",
		"<",
		strings.Repeat("(", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err == nil {
			if q == nil {
				t.Fatal("nil error and nil query")
			}
			return
		}
		if q != nil {
			t.Fatalf("non-nil query alongside error %v", err)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("parse failure is not a *ParseError: %T %v", err, err)
		}
		if pe.Pos < 0 || pe.Pos > len(input) {
			t.Fatalf("ParseError.Pos = %d outside input of %d bytes", pe.Pos, len(input))
		}
		if pe.Msg == "" {
			t.Fatal("ParseError with empty message")
		}
		// The rendered message must stay valid UTF-8 even when the input
		// is not — it travels in JSON error bodies.
		if !utf8.ValidString(pe.Error()) && utf8.ValidString(input) {
			t.Fatalf("error message is invalid UTF-8 for valid-UTF-8 input: %q", pe.Error())
		}
	})
}
