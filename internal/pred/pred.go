// Package pred implements leaf-value predicates shared by the query AST,
// the QPT, the path index and the evaluator (paper §3.3: "nodes are
// associated with tag names and (possibly) predicates", e.g. year > 1995).
//
// Comparison follows XQuery's untyped-atomic convention as restricted by the
// supported grammar: if both operands parse as numbers they compare
// numerically, otherwise they compare as strings.
package pred

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is a comparison operator from the supported grammar (Comp ::= '=' |
// '<' | '>').
type Op byte

// Supported comparison operators.
const (
	Eq Op = '='
	Lt Op = '<'
	Gt Op = '>'
)

// Predicate compares an element's atomic value against a literal.
type Predicate struct {
	Op  Op
	Lit string
}

// String renders the predicate as it appears in queries, e.g. "> 1995".
func (p Predicate) String() string { return fmt.Sprintf("%c %s", p.Op, p.Lit) }

// Eval reports whether value satisfies the predicate.
func (p Predicate) Eval(value string) bool {
	return p.Compile().Eval(value)
}

// Compiled is a predicate whose literal has been parsed, for evaluating it
// against many values: the literal is half of every comparison.
type Compiled struct {
	op      Op
	lit     string
	num     float64
	numeric bool // lit parses as a number
}

// Compile parses the predicate's literal once.
func (p Predicate) Compile() Compiled {
	num, numeric := Number(p.Lit)
	return Compiled{op: p.Op, lit: p.Lit, num: num, numeric: numeric}
}

// Number reports whether s is a number and its value: the one rule by
// which every comparison chooses between comparing by value and by
// spelling. s is a number when strconv.ParseFloat accepts it.
func Number(s string) (float64, bool) {
	// ParseFloat allocates an error for every string it rejects, so the
	// common non-numbers are turned away first: none it accepts starts
	// with a byte other than a sign, point, digit or the "i" of "inf" or
	// "n" of "nan", nor carries a sign anywhere but first and right after
	// an exponent marker (which rejects keys like 123-45-6789).
	if s == "" || !strings.ContainsRune("+-.0123456789iInN", rune(s[0])) {
		return 0, false
	}
	for i := 1; i < len(s); i++ {
		if (s[i] == '-' || s[i] == '+') && !strings.ContainsRune("eEpP", rune(s[i-1])) {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// Numeric reports whether the literal is a number, compared by value.
func (c Compiled) Numeric() bool { return c.numeric }

// Eval reports whether value satisfies the predicate: numerically when
// both value and literal are numeric ("07" = "7"), as strings otherwise
// ("10x").
func (c Compiled) Eval(value string) bool {
	if c.numeric {
		if v, ok := Number(value); ok {
			return compare(v, c.num, c.op)
		}
	}
	return compare(value, c.lit, c.op)
}

// Compare applies op to (a, b) with numeric comparison when both operands
// are numeric, string comparison otherwise.
func Compare(a, b string, op Op) bool {
	return Predicate{Op: op, Lit: b}.Eval(a)
}

func compare[T float64 | string](a, b T, op Op) bool {
	switch op {
	case Eq:
		return a == b
	case Lt:
		return a < b
	case Gt:
		return a > b
	}
	return false
}

// All reports whether value satisfies every predicate in preds.
func All(preds []Predicate, value string) bool {
	for _, p := range preds {
		if !p.Eval(value) {
			return false
		}
	}
	return true
}
