// Package xq implements the supported XQuery subset of the paper
// (Appendix A): path expressions with named child and descendant axes,
// predicates on leaf values, nested FLWOR expressions, conditional
// expressions, element constructors, non-recursive function declarations,
// and the ftcontains full-text predicate used to pose keyword queries over
// views (Figure 2).
package xq

import (
	"strings"

	"vxml/internal/pathindex"
	"vxml/internal/pred"
)

// Expr is any expression of the supported grammar.
type Expr interface {
	exprNode()
	String() string
}

// DocExpr is fn:doc(Name).
type DocExpr struct{ Name string }

// VarExpr is a variable reference $name (Name excludes the '$').
type VarExpr struct{ Name string }

// DotExpr is the context item '.'.
type DotExpr struct{}

// StepExpr is a relative path applied to a base expression, e.g.
// fn:doc(books.xml)/books//book. Steps reuse the path index Step type.
type StepExpr struct {
	Base  Expr
	Steps []pathindex.Step
}

// FilterExpr is PathExpr '[' PredExpr ']'. The predicate is evaluated with
// '.' bound to each item of the base sequence (existence semantics).
type FilterExpr struct {
	Base Expr
	Pred Expr
}

// CmpExpr is a general comparison PredExpr: PathExpr Comp Literal or
// PathExpr Comp PathExpr. Existential semantics: true iff some pair of
// atomized operand values satisfies the comparison.
type CmpExpr struct {
	Left  Expr
	Op    pred.Op
	Right Expr // LiteralExpr for the Comp-Literal form
}

// LiteralExpr is a quoted string or numeric literal. Item is Value as an
// interface value, boxed once (NewLiteral) so that an evaluator appending
// the literal to a value sequence, once per binding, does not box it anew.
type LiteralExpr struct {
	Value string
	Item  any
}

// NewLiteral returns the literal expression for value.
func NewLiteral(value string) *LiteralExpr { return &LiteralExpr{Value: value, Item: value} }

// CondExpr is 'if' Expr 'then' Expr 'else' Expr.
type CondExpr struct{ Cond, Then, Else Expr }

// ForLetClause is one 'for $v in e' or 'let $v := e' clause.
type ForLetClause struct {
	IsLet bool
	Var   string
	In    Expr
}

// FLWORExpr is (ForClause | LetClause)+ (WhereClause)? ReturnClause.
type FLWORExpr struct {
	Clauses []ForLetClause
	Where   Expr // nil if absent; may be *FTContainsExpr
	Return  Expr
}

// ElementExpr is an element constructor '<t>' ('{' e '}')* '</t>'.
type ElementExpr struct {
	Tag      string
	Children []Expr
}

// SeqExpr is Expr ',' Expr (flattened).
type SeqExpr struct{ Items []Expr }

// CallExpr is QName '(' args ')'.
type CallExpr struct {
	Name string
	Args []Expr
}

// FuncDecl is 'declare function QName (params) { Expr }'.
type FuncDecl struct {
	Name   string
	Params []string
	Body   Expr
}

// FTContainsExpr is the full-text predicate of Figure 2:
// Expr ftcontains('k1' & 'k2' ...) — conjunctive with '&', disjunctive
// with '|'.
type FTContainsExpr struct {
	Target      Expr
	Keywords    []string
	Conjunctive bool
}

// Query is a parsed program: zero or more function declarations followed by
// a body expression.
type Query struct {
	Functions map[string]*FuncDecl
	Body      Expr
}

func (*DocExpr) exprNode()        {}
func (*VarExpr) exprNode()        {}
func (*DotExpr) exprNode()        {}
func (*StepExpr) exprNode()       {}
func (*FilterExpr) exprNode()     {}
func (*CmpExpr) exprNode()        {}
func (*LiteralExpr) exprNode()    {}
func (*CondExpr) exprNode()       {}
func (*FLWORExpr) exprNode()      {}
func (*ElementExpr) exprNode()    {}
func (*SeqExpr) exprNode()        {}
func (*CallExpr) exprNode()       {}
func (*FTContainsExpr) exprNode() {}

func (e *DocExpr) String() string { return "fn:doc(" + e.Name + ")" }
func (e *VarExpr) String() string { return "$" + e.Name }
func (*DotExpr) String() string   { return "." }

func (e *StepExpr) String() string {
	return e.Base.String() + pathindex.FormatSteps(e.Steps)
}

func (e *FilterExpr) String() string {
	return e.Base.String() + "[" + e.Pred.String() + "]"
}

func (e *CmpExpr) String() string {
	return e.Left.String() + " " + string(e.Op) + " " + e.Right.String()
}

func (e *LiteralExpr) String() string { return "'" + e.Value + "'" }

func (e *CondExpr) String() string {
	return "if " + e.Cond.String() + " then " + e.Then.String() + " else " + e.Else.String()
}

func (e *FLWORExpr) String() string {
	var b strings.Builder
	for _, c := range e.Clauses {
		if c.IsLet {
			b.WriteString("let $" + c.Var + " := " + c.In.String() + " ")
		} else {
			b.WriteString("for $" + c.Var + " in " + c.In.String() + " ")
		}
	}
	if e.Where != nil {
		b.WriteString("where " + e.Where.String() + " ")
	}
	b.WriteString("return " + e.Return.String())
	return b.String()
}

func (e *ElementExpr) String() string {
	var b strings.Builder
	b.WriteString("<" + e.Tag + ">")
	for _, c := range e.Children {
		b.WriteString("{" + c.String() + "}")
	}
	b.WriteString("</" + e.Tag + ">")
	return b.String()
}

func (e *SeqExpr) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (e *FTContainsExpr) String() string {
	sep := " & "
	if !e.Conjunctive {
		sep = " | "
	}
	quoted := make([]string, len(e.Keywords))
	for i, k := range e.Keywords {
		quoted[i] = "'" + k + "'"
	}
	return e.Target.String() + " ftcontains(" + strings.Join(quoted, sep) + ")"
}
