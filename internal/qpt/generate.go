package qpt

import (
	"errors"
	"fmt"

	"vxml/internal/pred"
	"vxml/internal/xq"
)

const maxExpandDepth = 32

// MaxNodes bounds the pattern nodes Generate creates for one view, before
// twigs merge. Every call expands its function body again, so nested calls
// grow the pattern exponentially; the largest test or benchmark view
// creates 46.
const MaxNodes = 1024

// ErrTooManyNodes reports a view whose QPT expansion passes MaxNodes
// (compare with errors.Is).
var ErrTooManyNodes = errors.New("qpt: view too large")

// analyzeReturn analyzes an expression in output position: its results
// contribute content to the view. Element constructors and sequences
// optional-ize the root edges of variable-anchored twigs, because a
// constructed element exists even when an embedded sub-expression is empty
// (Appendix B, Figure 24 lines 42-60).
func (g *generator) analyzeReturn(e xq.Expr) ([]*twig, error) {
	switch x := e.(type) {
	case *xq.ElementExpr:
		var out []*twig
		for _, child := range x.Children {
			ts, err := g.analyzeReturn(child)
			if err != nil {
				return nil, err
			}
			optionalizeVarRooted(ts)
			out = append(out, ts...)
		}
		return out, nil
	case *xq.SeqExpr:
		var out []*twig
		for _, item := range x.Items {
			ts, err := g.analyzeReturn(item)
			if err != nil {
				return nil, err
			}
			optionalizeVarRooted(ts)
			out = append(out, ts...)
		}
		return out, nil
	default:
		return g.analyze(e, true)
	}
}

// optionalizeVarRooted marks the root edges of variable- and dot-anchored
// twigs optional.
func optionalizeVarRooted(ts []*twig) {
	for _, t := range ts {
		if t.anchor == "." || t.anchor[0] == '$' {
			for _, edge := range t.root.Edges {
				edge.Mandatory = false
			}
		}
	}
}

// analyze derives twigs for an expression. content reports whether the
// expression's value is propagated to the view output (sets 'c' on spine
// leaves).
func (g *generator) analyze(e xq.Expr, content bool) ([]*twig, error) {
	switch x := e.(type) {
	case *xq.DocExpr:
		return g.anchorTwig(docAnchor(x.Name), content)
	case *xq.VarExpr:
		return g.anchorTwig(varAnchor(x.Name), content)
	case *xq.DotExpr:
		return g.anchorTwig(".", content)
	case *xq.LiteralExpr:
		return nil, nil
	case *xq.StepExpr:
		ts, err := g.analyze(x.Base, false)
		if err != nil {
			return nil, err
		}
		if len(ts) == 0 {
			return nil, fmt.Errorf("qpt: path steps applied to literal")
		}
		if err := g.charge(len(x.Steps)); err != nil {
			return nil, err
		}
		main := ts[0]
		for _, st := range x.Steps {
			main.leaf = main.leaf.addChild(st.Tag, st.Axis, true)
		}
		main.leaf.C = content
		return ts, nil
	case *xq.FilterExpr:
		ts, err := g.analyze(x.Base, content)
		if err != nil {
			return nil, err
		}
		if len(ts) == 0 {
			return nil, fmt.Errorf("qpt: filter applied to literal")
		}
		main := ts[0]
		predTwigs, err := g.analyzePred(x.Pred)
		if err != nil {
			return nil, err
		}
		for _, pt := range predTwigs {
			if pt.anchor == "." {
				graft(main.leaf, pt)
			} else {
				ts = append(ts, pt)
			}
		}
		return ts, nil
	case *xq.CmpExpr, *xq.FTContainsExpr:
		return g.analyzePred(e)
	case *xq.CondExpr:
		condTs, err := g.analyzePred(x.Cond)
		if err != nil {
			return nil, err
		}
		// Condition sub-expressions never contribute content (Figure 21
		// lines 36-39).
		for _, t := range condTs {
			clearContent(t.root)
		}
		thenTs, err := g.analyze(x.Then, content)
		if err != nil {
			return nil, err
		}
		elseTs, err := g.analyze(x.Else, content)
		if err != nil {
			return nil, err
		}
		return append(condTs, append(thenTs, elseTs...)...), nil
	case *xq.SeqExpr:
		var out []*twig
		for _, item := range x.Items {
			ts, err := g.analyze(item, content)
			if err != nil {
				return nil, err
			}
			optionalizeVarRooted(ts)
			out = append(out, ts...)
		}
		return out, nil
	case *xq.ElementExpr:
		return g.analyzeReturn(x)
	case *xq.FLWORExpr:
		return g.analyzeFLWOR(x, content)
	case *xq.CallExpr:
		return g.analyzeCall(x, content)
	}
	return nil, fmt.Errorf("qpt: unsupported expression %T in view", e)
}

// anchorTwig starts a twig at an anchor: one virtual node that is both its
// root and its spine leaf.
func (g *generator) anchorTwig(anchor string, content bool) ([]*twig, error) {
	if err := g.charge(1); err != nil {
		return nil, err
	}
	root := &Node{C: content}
	return []*twig{{anchor: anchor, root: root, leaf: root}}, nil
}

// charge counts n newly created pattern nodes against MaxNodes.
func (g *generator) charge(n int) error {
	g.nodes += n
	if g.nodes > MaxNodes {
		return fmt.Errorf("%w: more than %d pattern nodes", ErrTooManyNodes, MaxNodes)
	}
	return nil
}

// analyzePred analyzes a predicate expression (where clause, filter, if
// condition): path existence, comparison to a literal (predicate pushed to
// the leaf, 'v' set so the evaluator can re-check it over the PDT), or a
// value join (both leaves 'v').
func (g *generator) analyzePred(e xq.Expr) ([]*twig, error) {
	switch x := e.(type) {
	case *xq.CmpExpr:
		if lit, ok := x.Right.(*xq.LiteralExpr); ok {
			ts, err := g.analyze(x.Left, false)
			if err != nil {
				return nil, err
			}
			if len(ts) > 0 {
				leaf := ts[0].leaf
				leaf.Preds = append(leaf.Preds, pred.Predicate{Op: x.Op, Lit: lit.Value})
				leaf.V = true
			}
			return ts, nil
		}
		if lit, ok := x.Left.(*xq.LiteralExpr); ok {
			// literal Comp path: flip the comparison
			ts, err := g.analyze(x.Right, false)
			if err != nil {
				return nil, err
			}
			if len(ts) > 0 {
				leaf := ts[0].leaf
				leaf.Preds = append(leaf.Preds, pred.Predicate{Op: flip(x.Op), Lit: lit.Value})
				leaf.V = true
			}
			return ts, nil
		}
		left, err := g.analyze(x.Left, false)
		if err != nil {
			return nil, err
		}
		right, err := g.analyze(x.Right, false)
		if err != nil {
			return nil, err
		}
		ts := append(left, right...)
		for _, t := range ts {
			t.leaf.V = true
		}
		return ts, nil
	case *xq.FTContainsExpr:
		return nil, fmt.Errorf("qpt: ftcontains inside a view definition is not supported; pose keywords over the view")
	default:
		return g.analyze(e, false)
	}
}

func flip(op pred.Op) pred.Op {
	switch op {
	case pred.Lt:
		return pred.Gt
	case pred.Gt:
		return pred.Lt
	}
	return op
}

func clearContent(n *Node) {
	n.C = false
	for _, e := range n.Edges {
		clearContent(e.Child)
	}
}

// analyzeFLWOR implements Figure 24: analyze where and return, then bind
// for/let clauses from the innermost to the outermost, grafting twigs
// anchored at each clause variable onto the leaf of the clause's binding
// path.
func (g *generator) analyzeFLWOR(x *xq.FLWORExpr, content bool) ([]*twig, error) {
	var pending []*twig
	if x.Where != nil {
		ts, err := g.analyzePred(x.Where)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			clearContent(t.root)
		}
		pending = append(pending, ts...)
	}
	retTs, err := g.analyzeReturnExpr(x.Return, content)
	if err != nil {
		return nil, err
	}
	pending = append(pending, retTs...)

	for i := len(x.Clauses) - 1; i >= 0; i-- {
		cl := x.Clauses[i]
		pathTs, err := g.analyze(cl.In, false)
		if err != nil {
			return nil, err
		}
		if len(pathTs) == 0 {
			return nil, fmt.Errorf("qpt: clause $%s binds a literal", cl.Var)
		}
		pending = append(bind(pathTs[0].leaf, pending, varAnchor(cl.Var), cl.IsLet), pathTs...)
	}
	return pending, nil
}

// bind grafts every twig in pending anchored at anchor onto leaf, the leaf
// of the path the anchor's variable is bound to, and returns the others.
// A sequence variable's (a let's, or a parameter's) uses each ask their own
// of its items — `where $s//y > 1` of some, `for $v in $s` of each — so
// with several uses none may prune an item another reads.
func bind(leaf *Node, pending []*twig, anchor string, sequence bool) []*twig {
	var remaining, uses []*twig
	for _, t := range pending {
		if t.anchor == anchor {
			uses = append(uses, t)
		} else {
			remaining = append(remaining, t)
		}
	}
	if sequence && len(uses) > 1 {
		optionalizeVarRooted(uses)
	}
	for _, t := range uses {
		graft(leaf, t)
	}
	return remaining
}

// analyzeReturnExpr dispatches return expressions with content=true unless
// the FLWOR itself is in a non-content position.
func (g *generator) analyzeReturnExpr(e xq.Expr, content bool) ([]*twig, error) {
	if !content {
		ts, err := g.analyzeReturn(e)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			clearContent(t.root)
		}
		return ts, nil
	}
	return g.analyzeReturn(e)
}

// graft attaches twig t (anchored at a variable or '.') onto leaf: t's root
// edges become leaf's edges, and the anchor's annotations fold into the
// leaf. The anchor's content annotation is set only when the anchor itself
// is returned (`return $var`, Figure 24 lines 21-27), and it folds in too,
// through every binding on the way: `let $s := path for $v in $s return
// $v` marks path's leaf, however many steps and predicates hang off $v and
// $s.
func graft(leaf *Node, t *twig) {
	for _, e := range t.root.Edges {
		e.From = leaf
		leaf.Edges = append(leaf.Edges, e)
	}
	leaf.V = leaf.V || t.root.V
	leaf.C = leaf.C || t.root.C
	leaf.Preds = append(leaf.Preds, t.root.Preds...)
}

// analyzeCall expands a non-recursive function call: the body is analyzed
// and parameter-anchored twigs are grafted onto the argument paths
// (Figure 21 lines 43-60).
func (g *generator) analyzeCall(x *xq.CallExpr, content bool) ([]*twig, error) {
	fd, ok := g.funcs[x.Name]
	if !ok {
		return nil, fmt.Errorf("qpt: unknown function %q", x.Name)
	}
	if len(x.Args) != len(fd.Params) {
		return nil, fmt.Errorf("qpt: %s expects %d arguments, got %d", x.Name, len(fd.Params), len(x.Args))
	}
	if g.depth >= maxExpandDepth {
		return nil, fmt.Errorf("qpt: function expansion too deep (recursion is not supported)")
	}
	g.depth++
	defer func() { g.depth-- }()
	bodyTs, err := g.analyze(fd.Body, content)
	if err != nil {
		return nil, err
	}
	pending := bodyTs
	for i, arg := range x.Args {
		argTs, err := g.analyze(arg, false)
		if err != nil {
			return nil, err
		}
		if len(argTs) == 0 {
			continue // literal argument
		}
		pending = append(bind(argTs[0].leaf, pending, varAnchor(fd.Params[i]), true), argTs...)
	}
	return pending, nil
}
