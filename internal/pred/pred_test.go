package pred

import (
	"strconv"
	"testing"
)

func TestNumericComparison(t *testing.T) {
	cases := []struct {
		a, b string
		op   Op
		want bool
	}{
		{"1996", "1995", Gt, true},
		{"1995", "1995", Gt, false},
		{"1994", "1995", Lt, true},
		{"07", "7", Eq, true}, // numeric equality ignores formatting
		{"1e3", "1000", Eq, true},
		{"2", "10", Lt, true}, // numeric, not lexicographic
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b, c.op); got != c.want {
			t.Errorf("Compare(%q,%q,%c) = %v, want %v", c.a, c.b, c.op, got, c.want)
		}
	}
}

func TestStringComparison(t *testing.T) {
	cases := []struct {
		a, b string
		op   Op
		want bool
	}{
		{"Jane", "Jane", Eq, true},
		{"Jane", "John", Eq, false},
		{"abc", "abd", Lt, true},
		{"b", "a", Gt, true},
		{"10x", "9", Lt, true}, // one non-numeric operand -> string compare
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b, c.op); got != c.want {
			t.Errorf("Compare(%q,%q,%c) = %v, want %v", c.a, c.b, c.op, got, c.want)
		}
	}
}

func TestPredicateEvalAndString(t *testing.T) {
	p := Predicate{Op: Gt, Lit: "1995"}
	if !p.Eval("1996") || p.Eval("1995") {
		t.Error("Eval(> 1995) wrong")
	}
	if p.String() != "> 1995" {
		t.Errorf("String = %q", p.String())
	}
}

func TestAll(t *testing.T) {
	preds := []Predicate{{Op: Gt, Lit: "10"}, {Op: Lt, Lit: "20"}}
	if !All(preds, "15") {
		t.Error("15 satisfies both")
	}
	if All(preds, "25") || All(preds, "5") {
		t.Error("out-of-range values should fail")
	}
	if !All(nil, "anything") {
		t.Error("empty predicate list is vacuously true")
	}
}

func TestUnknownOp(t *testing.T) {
	if Compare("1", "1", Op('?')) {
		t.Error("unknown op should be false")
	}
	if Compare("a", "a", Op('?')) {
		t.Error("unknown op should be false (string path)")
	}
}

// TestNumberIsParseFloat: the early rejects in Number never turn away a
// string ParseFloat accepts, whatever byte it starts with and wherever it
// carries a sign.
func TestNumberIsParseFloat(t *testing.T) {
	for b := 0; b < 256; b++ {
		for _, rest := range []string{"", "1", "7.5", "e3", "nf", "nfinity", "an", "x1p-2", "_1", "0",
			"-1", "+1", "e-5", "E+5", ".5e-3", "x1.8p+3", "X1P-1", "23-45-6789", "e--5", "1e+-2", "nf-"} {
			s := string([]byte{byte(b)}) + rest
			v, ok := Number(s)
			want, err := strconv.ParseFloat(s, 64)
			if ok != (err == nil) || ok && v != want && v == v {
				t.Errorf("Number(%q) = %v, %v; ParseFloat = %v, %v", s, v, ok, want, err)
			}
		}
	}
}
