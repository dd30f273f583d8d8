package core

import (
	"fmt"

	"vxml/internal/docname"
	"vxml/internal/qpt"
	"vxml/internal/xq"
)

// View is a compiled virtual view: the parsed definition, one QPT per
// referenced document or collection pattern, and what the view reads.
// It is immutable and shared by concurrent searches.
type View struct {
	Text  string
	Expr  xq.Expr
	Funcs map[string]*xq.FuncDecl
	QPTs  []*qpt.QPT
	Deps  Deps
	// perDocument is set when the view runs one work unit per candidate
	// document (perDocumentReason).
	perDocument bool
}

// Deps is what a view reads from the corpus, worked out once at compile
// time. lockAndPlan picks its shards from Refs, CheckRefs validates Refs,
// and the cluster coordinator routes searches from all three fields.
type Deps struct {
	// Refs holds each QPT's document reference, in QPT order: a literal
	// fn:doc name or a docname pattern.
	Refs []string
	// Outer is the reference the outer FLWOR's first clause ranges over
	// when that clause is a for; "" for any other shape.
	Outer string
	// Uses counts each reference's fn:doc/fn:collection occurrences,
	// function bodies included — called or not, so the count errs high
	// and a self-join is never mistaken for a single use.
	Uses map[string]int
}

// Compile parses a view definition (an XQuery expression without
// ftcontains) and compiles it with CompileParsed.
func Compile(text string) (*View, error) {
	q, err := xq.Parse(text)
	if err != nil {
		return nil, err
	}
	return CompileParsed(text, q.Body, q.Functions)
}

// CompileParsed compiles an already-parsed view expression: its QPTs and
// Deps. It reads no corpus, so a cluster node can compile a view over
// documents other nodes hold; existence is CheckRefs' question. A literal
// reference that a collection pattern of the same view matches would give
// its document two PDTs, whatever the corpus holds: such a view is refused
// with an error wrapping ErrInvalidOptions.
func CompileParsed(text string, expr xq.Expr, funcs map[string]*xq.FuncDecl) (*View, error) {
	qpts, err := qpt.Generate(expr, funcs)
	if err != nil {
		return nil, err
	}
	deps := Deps{Refs: make([]string, len(qpts)), Outer: outerRef(expr), Uses: map[string]int{}}
	for i, q := range qpts {
		deps.Refs[i] = q.Doc
	}
	for _, pattern := range deps.Refs {
		for _, ref := range deps.Refs {
			if docname.IsPattern(pattern) && !docname.IsPattern(ref) && docname.Match(pattern, ref) {
				return nil, fmt.Errorf("core: %w: view reads %q both by name and through %q", ErrInvalidOptions, ref, pattern)
			}
		}
	}
	countUses(expr, deps.Uses)
	for _, f := range funcs {
		countUses(f.Body, deps.Uses)
	}
	return &View{Text: text, Expr: expr, Funcs: funcs, QPTs: qpts, Deps: deps, perDocument: perDocumentReason(deps) == ""}, nil
}

// Partition is the partition rule core and the cluster coordinator share:
// "" when the outer FLWOR opens with a for over a reference the view uses
// nowhere else, else why not. FLWOR evaluates each outer binding on its
// own and nothing else reads an outer document (no document is matched
// by two references: CompileParsed, EachCandidate), so the view's results
// are its results over one outer document at a time, in document-ID order.
func (d Deps) Partition() string {
	switch {
	case d.Outer == "":
		return "no outer for clause"
	case d.Uses[d.Outer] != 1:
		return "outer reference is used more than once"
	}
	return ""
}

// perDocumentReason reports why a view does not run one work unit per
// candidate document, or "" when it does: the partition rule holds over a
// collection pattern. A literal outer document's view chunks its outer
// bindings instead (pass.evalOuter).
func perDocumentReason(d Deps) string {
	if reason := d.Partition(); reason != "" {
		return reason
	}
	if !docname.IsPattern(d.Outer) {
		return "outer binding is a literal document"
	}
	return ""
}

// CheckRefs reports the first literal reference exists does not know,
// wrapping ErrUnknownDocument. Collection patterns are not checked: they
// may match nothing today and many documents after the next ingest.
func (v *View) CheckRefs(exists func(name string) bool) error {
	for _, ref := range v.Deps.Refs {
		if !docname.IsPattern(ref) && !exists(ref) {
			return fmt.Errorf("core: view references %w %q", ErrUnknownDocument, ref)
		}
	}
	return nil
}

// outerRef walks the outer FLWOR's first binding down to its document
// reference (Deps.Outer).
func outerRef(e xq.Expr) string {
	fl, ok := e.(*xq.FLWORExpr)
	if !ok || len(fl.Clauses) == 0 || fl.Clauses[0].IsLet {
		return ""
	}
	cur := fl.Clauses[0].In
	for {
		switch x := cur.(type) {
		case *xq.DocExpr:
			return x.Name
		case *xq.StepExpr:
			cur = x.Base
		case *xq.FilterExpr:
			cur = x.Base
		default:
			return ""
		}
	}
}

// countUses adds e's fn:doc/fn:collection occurrences to uses (Deps.Uses).
func countUses(e xq.Expr, uses map[string]int) {
	switch x := e.(type) {
	case *xq.DocExpr:
		uses[x.Name]++
	case *xq.StepExpr:
		countUses(x.Base, uses)
	case *xq.FilterExpr:
		countUses(x.Base, uses)
		countUses(x.Pred, uses)
	case *xq.CmpExpr:
		countUses(x.Left, uses)
		countUses(x.Right, uses)
	case *xq.CondExpr:
		countUses(x.Cond, uses)
		countUses(x.Then, uses)
		countUses(x.Else, uses)
	case *xq.FLWORExpr:
		for _, cl := range x.Clauses {
			countUses(cl.In, uses)
		}
		countUses(x.Where, uses)
		countUses(x.Return, uses)
	case *xq.ElementExpr:
		for _, ch := range x.Children {
			countUses(ch, uses)
		}
	case *xq.SeqExpr:
		for _, it := range x.Items {
			countUses(it, uses)
		}
	case *xq.CallExpr:
		for _, a := range x.Args {
			countUses(a, uses)
		}
	case *xq.FTContainsExpr:
		countUses(x.Target, uses)
	}
}
