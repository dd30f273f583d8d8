package xqeval

import (
	"fmt"
	"slices"

	"vxml/internal/pred"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// evalBool computes the effective boolean value of a predicate expression:
// comparisons are existential over atomized operands, ftcontains checks
// keyword containment over materialized subtrees, and any other expression
// is true iff its value sequence is non-empty.
func (e *Evaluator) evalBool(expr xq.Expr, en *env) (bool, error) {
	switch x := expr.(type) {
	case *xq.CmpExpr:
		left, err := e.Eval(x.Left, en)
		if err != nil {
			return false, err
		}
		right, err := e.Eval(x.Right, en)
		if err != nil {
			return false, err
		}
		for _, l := range left {
			lv := Atomize(l)
			for _, r := range right {
				if pred.Compare(lv, Atomize(r), x.Op) {
					return true, nil
				}
			}
		}
		return false, nil
	case *xq.FTContainsExpr:
		targets, err := e.Eval(x.Target, en)
		if err != nil {
			return false, err
		}
		for _, item := range targets {
			n, ok := item.(*xmltree.Node)
			if !ok {
				continue
			}
			if ContainsKeywords(n, x.Keywords, x.Conjunctive) {
				return true, nil
			}
		}
		return false, nil
	default:
		v, err := e.Eval(expr, en)
		if err != nil {
			return false, err
		}
		if len(v) == 1 {
			if s, ok := v[0].(string); ok {
				return s != "", nil
			}
		}
		return len(v) > 0, nil
	}
}

// ContainsKeywords reports whether the materialized subtree satisfies the
// keyword set conjunctively or disjunctively (used by the Baseline
// pipeline; the Efficient pipeline enforces this from PDT tf values).
func ContainsKeywords(n *xmltree.Node, keywords []string, conjunctive bool) bool {
	for _, k := range keywords {
		has := xmltree.Contains(n, k)
		if conjunctive && !has {
			return false
		}
		if !conjunctive && has {
			return true
		}
	}
	return conjunctive
}

// evalCtor constructs a fresh element. Node children are attached by
// reference (no deep copy) so that scoring can trace view results back to
// base or PDT elements; parent pointers of referenced nodes are left
// untouched.
func (e *Evaluator) evalCtor(x *xq.ElementExpr, en *env) ([]Item, error) {
	n := xmltree.NewElement(x.Tag)
	for _, childExpr := range x.Children {
		items, err := e.Eval(childExpr, en)
		if err != nil {
			return nil, err
		}
		for _, item := range items {
			switch c := item.(type) {
			case *xmltree.Node:
				n.Children = append(n.Children, c)
			case string:
				if n.Value != "" {
					n.Value += " "
				}
				n.Value += c
			}
		}
	}
	return []Item{n}, nil
}

const maxCallDepth = 64

func (e *Evaluator) evalCall(x *xq.CallExpr, en *env) ([]Item, error) {
	fd, ok := e.funcs[x.Name]
	if !ok {
		return nil, fmt.Errorf("xqeval: unknown function %q", x.Name)
	}
	if len(x.Args) != len(fd.Params) {
		return nil, fmt.Errorf("xqeval: %s expects %d arguments, got %d", x.Name, len(fd.Params), len(x.Args))
	}
	if e.callDepth >= maxCallDepth {
		return nil, fmt.Errorf("xqeval: call depth exceeded (recursive functions are not supported)")
	}
	// Functions see only their parameters (no caller locals).
	var fnEnv *env
	for i, arg := range x.Args {
		v, err := e.Eval(arg, en)
		if err != nil {
			return nil, err
		}
		fnEnv = fnEnv.bind(fd.Params[i], v)
	}
	e.callDepth++
	defer func() { e.callDepth-- }()
	return e.Eval(fd.Body, fnEnv)
}

// joinPlan is what the equality-join fast path knows about one FLWOR. The
// shape — whether it qualifies and which comparison side is keyed by the
// loop variable — depends on the expression alone, so it is analysed on
// the first visit and never again; the hash index, which maps atomized
// join-key values of the loop sequence to the ascending positions of the
// matching items, is built when the first binding probes it.
type joinPlan struct {
	keyExpr, probeExpr xq.Expr // both nil: the FLWOR does not qualify
	items              []Item
	byKey              map[string][]int // nil until built
}

func (e *Evaluator) evalFLWOR(x *xq.FLWORExpr, en *env) ([]Item, error) {
	return e.evalClauses(x, 0, en)
}

// OuterBindings evaluates the binding sequence of a top-level FLWOR's first
// clause, the axis along which evaluation can be partitioned: FLWOR
// semantics evaluates the remaining clauses independently per binding and
// concatenates, so Eval(x) is exactly the concatenation of
// EvalTail(x, item) over these items in order. ok is false when the first
// clause is a let binding (no partitionable sequence).
func (e *Evaluator) OuterBindings(x *xq.FLWORExpr) ([]Item, bool, error) {
	if len(x.Clauses) == 0 || x.Clauses[0].IsLet {
		return nil, false, nil
	}
	seq, err := e.Eval(x.Clauses[0].In, nil)
	return seq, true, err
}

// EvalTail evaluates the FLWOR's remaining clauses, where-filter and return
// for a single binding of its first (for) clause. Different bindings may be
// evaluated by different Evaluators — over the same immutable catalog —
// and the concatenation of their outputs in binding order reproduces the
// single-evaluator result exactly.
func (e *Evaluator) EvalTail(x *xq.FLWORExpr, binding Item) ([]Item, error) {
	return e.evalClauses(x, 1, (*env)(nil).bind1(x.Clauses[0].Var, binding))
}

func (e *Evaluator) evalClauses(x *xq.FLWORExpr, idx int, en *env) ([]Item, error) {
	if idx == len(x.Clauses) {
		if x.Where != nil {
			ok, err := e.evalBool(x.Where, en)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, nil
			}
		}
		return e.Eval(x.Return, en)
	}
	cl := x.Clauses[idx]
	if cl.IsLet {
		v, err := e.Eval(cl.In, en)
		if err != nil {
			return nil, err
		}
		return e.evalClauses(x, idx+1, en.bind(cl.Var, v))
	}
	// Hash-join fast path: the last clause is a for-loop whose sequence is
	// loop-invariant and whose where-clause is an equality with the loop
	// variable on exactly one side.
	if e.HashJoin && idx == len(x.Clauses)-1 {
		if out, ok, err := e.tryHashJoin(x, cl, en); ok || err != nil {
			return out, err
		}
	}
	seq, err := e.Eval(cl.In, en)
	if err != nil {
		return nil, err
	}
	var out []Item
	for _, item := range seq {
		if err := e.ctxErr(); err != nil {
			return nil, err
		}
		v, err := e.evalClauses(x, idx+1, en.bind1(cl.Var, item))
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// planJoin analyses the FLWOR's last clause cl for the fast path: an
// equality where-clause over a loop-invariant sequence with the loop
// variable on exactly one side.
func planJoin(x *xq.FLWORExpr, cl xq.ForLetClause) *joinPlan {
	cmp, isCmp := x.Where.(*xq.CmpExpr)
	if !isCmp || cmp.Op != pred.Eq || len(FreeVars(cl.In)) != 0 {
		return &joinPlan{}
	}
	// Against a literal the where-clause is a selection by value ("07" = 7,
	// as the path index answers it); a hash table would match by spelling.
	_, litLeft := cmp.Left.(*xq.LiteralExpr)
	if _, litRight := cmp.Right.(*xq.LiteralExpr); litLeft || litRight {
		return &joinPlan{}
	}
	leftVars, rightVars := FreeVars(cmp.Left), FreeVars(cmp.Right)
	switch {
	case onlyVar(leftVars, cl.Var) && !rightVars[cl.Var]:
		return &joinPlan{keyExpr: cmp.Left, probeExpr: cmp.Right}
	case onlyVar(rightVars, cl.Var) && !leftVars[cl.Var]:
		return &joinPlan{keyExpr: cmp.Right, probeExpr: cmp.Left}
	}
	return &joinPlan{}
}

// tryHashJoin applies the equality-join fast path when eligible. It
// returns ok=false when the FLWOR shape does not qualify.
func (e *Evaluator) tryHashJoin(x *xq.FLWORExpr, cl xq.ForLetClause, en *env) ([]Item, bool, error) {
	jp := e.joins[x]
	if jp == nil {
		jp = planJoin(x, cl)
		e.joins[x] = jp
	}
	if jp.keyExpr == nil {
		return nil, false, nil
	}
	if jp.byKey == nil {
		seq, err := e.Eval(cl.In, en)
		if err != nil {
			return nil, true, err
		}
		byKey := make(map[string][]int, len(seq))
		for i, item := range seq {
			if err := e.ctxErr(); err != nil {
				return nil, true, err
			}
			keys, err := e.Eval(jp.keyExpr, (*env)(nil).bind1(cl.Var, item))
			if err != nil {
				return nil, true, err
			}
			for _, k := range keys {
				// Positions are appended in ascending order, so an item
				// whose keys repeat a value finds itself last in the list.
				kv := Atomize(k)
				if l := byKey[kv]; len(l) == 0 || l[len(l)-1] != i {
					byKey[kv] = append(l, i)
				}
			}
		}
		jp.items, jp.byKey = seq, byKey
	}
	probes, err := e.Eval(jp.probeExpr, en)
	if err != nil {
		return nil, true, err
	}
	e.JoinProbes += len(probes)
	// The matching positions, each once, in sequence order. One probe's
	// list is that already; several are merged.
	var order []int
	if len(probes) == 1 {
		order = jp.byKey[Atomize(probes[0])]
	} else {
		for _, p := range probes {
			order = append(order, jp.byKey[Atomize(p)]...)
		}
		slices.Sort(order)
		order = slices.Compact(order)
	}
	out := make([]Item, 0, len(order)) // exact when each match returns one item
	for _, i := range order {
		if err := e.ctxErr(); err != nil {
			return nil, true, err
		}
		v, err := e.Eval(x.Return, en.bind1(cl.Var, jp.items[i]))
		if err != nil {
			return nil, true, err
		}
		out = append(out, v...)
	}
	return out, true, nil
}

func onlyVar(vars map[string]bool, v string) bool {
	return len(vars) == 1 && vars[v]
}

// FreeVars returns the set of free variable names in expr.
func FreeVars(expr xq.Expr) map[string]bool {
	free := map[string]bool{}
	collectFree(expr, map[string]bool{}, free)
	return free
}

func collectFree(expr xq.Expr, bound, free map[string]bool) {
	switch x := expr.(type) {
	case *xq.VarExpr:
		if !bound[x.Name] {
			free[x.Name] = true
		}
	case *xq.StepExpr:
		collectFree(x.Base, bound, free)
	case *xq.FilterExpr:
		collectFree(x.Base, bound, free)
		collectFree(x.Pred, bound, free)
	case *xq.CmpExpr:
		collectFree(x.Left, bound, free)
		collectFree(x.Right, bound, free)
	case *xq.CondExpr:
		collectFree(x.Cond, bound, free)
		collectFree(x.Then, bound, free)
		collectFree(x.Else, bound, free)
	case *xq.SeqExpr:
		for _, it := range x.Items {
			collectFree(it, bound, free)
		}
	case *xq.ElementExpr:
		for _, c := range x.Children {
			collectFree(c, bound, free)
		}
	case *xq.CallExpr:
		for _, a := range x.Args {
			collectFree(a, bound, free)
		}
	case *xq.FTContainsExpr:
		collectFree(x.Target, bound, free)
	case *xq.FLWORExpr:
		inner := map[string]bool{}
		for k := range bound {
			inner[k] = true
		}
		for _, cl := range x.Clauses {
			collectFree(cl.In, inner, free)
			inner[cl.Var] = true
		}
		if x.Where != nil {
			collectFree(x.Where, inner, free)
		}
		collectFree(x.Return, inner, free)
	}
}
