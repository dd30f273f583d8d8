package xqeval

import (
	"fmt"
	"math"
	"slices"

	"vxml/internal/pred"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// evalBool computes the effective boolean value of a predicate expression:
// comparisons are existential over atomized operands, ftcontains checks
// keyword containment over materialized subtrees, and any other expression
// is true iff its value sequence is non-empty.
//
// The operands evaluate onto the value stack and are cut off it again, so
// the stack is as evalBool found it.
func (e *Evaluator) evalBool(expr xq.Expr, en *env) (bool, error) {
	mark := len(e.stack)
	var ok bool
	switch x := expr.(type) {
	case *xq.CmpExpr:
		if err := e.eval(x.Left, en); err != nil {
			return false, err
		}
		mid := len(e.stack)
		if err := e.eval(x.Right, en); err != nil {
			return false, err
		}
		ok = anyPair(e.stack[mark:mid], e.stack[mid:], x.Op)
	case *xq.FTContainsExpr:
		if err := e.eval(x.Target, en); err != nil {
			return false, err
		}
		for _, item := range e.stack[mark:] {
			if n, isNode := item.(*xmltree.Node); isNode && ContainsKeywords(n, x.Keywords, x.Conjunctive) {
				ok = true
				break
			}
		}
	default:
		if err := e.eval(expr, en); err != nil {
			return false, err
		}
		v := e.stack[mark:]
		ok = len(v) > 0
		if len(v) == 1 {
			if s, isStr := v[0].(string); isStr {
				ok = s != ""
			}
		}
	}
	e.stack = e.stack[:mark]
	return ok, nil
}

// anyPair is the existential comparison: some left item compares to some
// right item under op.
func anyPair(left, right []Item, op pred.Op) bool {
	for _, l := range left {
		lv := Atomize(l)
		for _, r := range right {
			if pred.Compare(lv, Atomize(r), op) {
				return true
			}
		}
	}
	return false
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

// evalCtor constructs a fresh element, in the evaluator's slab when it
// has one (SetSlab). Node children are attached by reference (no deep
// copy) so that scoring can trace view results back to base or PDT
// elements. The children's values collect on the stack first, so Children
// is carved once at its exact size.
func (e *Evaluator) evalCtor(x *xq.ElementExpr, en *env) error {
	mark := len(e.stack)
	for _, childExpr := range x.Children {
		if err := e.eval(childExpr, en); err != nil {
			return err
		}
	}
	nodes := 0
	for _, item := range e.stack[mark:] {
		if _, ok := item.(*xmltree.Node); ok {
			nodes++
		}
	}
	n := e.slab.element(x.Tag, nodes)
	for _, item := range e.stack[mark:] {
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
	e.stack = append(e.stack[:mark], n)
	return nil
}

const maxCallDepth = 64

func (e *Evaluator) evalCall(x *xq.CallExpr, en *env) error {
	fd, ok := e.funcs[x.Name]
	if !ok {
		return fmt.Errorf("xqeval: unknown function %q", x.Name)
	}
	if len(x.Args) != len(fd.Params) {
		return fmt.Errorf("xqeval: %s expects %d arguments, got %d", x.Name, len(fd.Params), len(x.Args))
	}
	if e.callDepth >= maxCallDepth {
		return fmt.Errorf("xqeval: call depth exceeded (recursive functions are not supported)")
	}
	// Functions see only their parameters (no caller locals), each bound
	// to a copy of its argument.
	var fnEnv *env
	for i, arg := range x.Args {
		v, err := e.Eval(arg, en)
		if err != nil {
			return err
		}
		fnEnv = fnEnv.bind(fd.Params[i], v)
	}
	e.callDepth++
	defer func() { e.callDepth-- }()
	return e.eval(fd.Body, fnEnv)
}

// joinPlan is what the equality-join fast path knows about one FLWOR in
// one pass. The shape — whether it qualifies and which comparison side is
// keyed by the loop variable — depends on the expression alone, so it is
// analysed on the FLWOR's first visit in a pass; the hash index is built
// when the first binding probes it.
type joinPlan struct {
	keyExpr, probeExpr xq.Expr    // both nil: the FLWOR does not qualify
	index              *joinIndex // nil until built
}

// joinIndex maps atomized join-key values of a loop sequence, items, to
// the ascending positions of the matching items. It matches keys as
// pred.Compare's equality does: numbers by value in byNum, where Go's
// float keys fold -0 into 0, and everything else by spelling in byStr. A
// number never equals a non-number, whose spelling differs. Both maps
// number the distinct keys, and key k's positions are
// pos[start[k]:start[k+1]]: one flat array, not a list per key. An index
// is storage its evaluator keeps from pass to pass (Reset clears it).
type joinIndex struct {
	items []Item
	byNum map[float64]int32
	byStr map[string]int32
	// last is each key's last position recorded, and pairs every (key,
	// position) recorded, in position order; seal sorts them into pos.
	last  []int32
	pairs []keyPos
	start []int32
	pos   []int32
}

type keyPos struct{ key, pos int32 }

// add records position i under join key k. Positions arrive in ascending
// order, so an item whose keys repeat a value finds itself last.
func (ix *joinIndex) add(k string, i int32) {
	v, numeric := pred.Number(k)
	if numeric && math.IsNaN(v) {
		return // NaN equals nothing, itself included
	}
	key, ok := int32(0), false
	if numeric {
		key, ok = ix.byNum[v]
	} else {
		key, ok = ix.byStr[k]
	}
	if !ok {
		key = int32(len(ix.last))
		ix.last = append(ix.last, -1)
		if numeric {
			ix.byNum[v] = key
		} else {
			ix.byStr[k] = key
		}
	}
	if ix.last[key] != i {
		ix.last[key] = i
		ix.pairs = append(ix.pairs, keyPos{key, i})
	}
}

// seal lays the recorded positions out in pos, key by key: a counting
// sort of pairs by key, stable, so each key's positions stay ascending.
func (ix *joinIndex) seal() {
	keys := len(ix.last)
	ix.start = slices.Grow(ix.start[:0], keys+1)[:keys+1]
	clear(ix.start)
	for _, p := range ix.pairs {
		ix.start[p.key+1]++
	}
	for k := 1; k <= keys; k++ {
		ix.start[k] += ix.start[k-1]
	}
	next := ix.last // each key's next slot in pos
	copy(next, ix.start[:keys])
	ix.pos = slices.Grow(ix.pos[:0], len(ix.pairs))[:len(ix.pairs)]
	for _, p := range ix.pairs {
		ix.pos[next[p.key]] = p.pos
		next[p.key]++
	}
}

// lookup returns the ascending positions whose join key equals k.
func (ix *joinIndex) lookup(k string) []int32 {
	key, ok := int32(0), false
	if v, numeric := pred.Number(k); numeric {
		key, ok = ix.byNum[v]
	} else {
		key, ok = ix.byStr[k]
	}
	if !ok {
		return nil
	}
	return ix.pos[ix.start[key]:ix.start[key+1]]
}

// clear empties the index, keeping its storage, and zeroes what it held.
func (ix *joinIndex) clear() {
	ix.items = cleared(ix.items)
	clear(ix.byNum)
	clear(ix.byStr)
	ix.last, ix.pairs, ix.start, ix.pos = ix.last[:0], ix.pairs[:0], ix.start[:0], ix.pos[:0]
}

// cap is the number of elements the index's largest buffer holds without
// growing; the maps hold at most cap(last) keys.
func (ix *joinIndex) cap() int {
	return max(cap(ix.items), cap(ix.last), cap(ix.pairs), cap(ix.pos))
}

// newJoinIndex returns the next empty join index of the evaluator's
// storage.
func (e *Evaluator) newJoinIndex() *joinIndex {
	if e.built == len(e.indexes) {
		e.indexes = append(e.indexes, &joinIndex{byNum: map[float64]int32{}, byStr: map[string]int32{}})
	}
	e.built++
	return e.indexes[e.built-1]
}

// OuterBindings evaluates the binding sequence of a top-level FLWOR's first
// clause, the axis along which evaluation can be partitioned: FLWOR
// semantics evaluates the remaining clauses independently per binding and
// concatenates, so the nodes of Eval(x) are exactly what AppendTail
// appends for these items in order. ok is false when the first clause is
// a let binding (no partitionable sequence). The items are the
// evaluator's own storage, valid until its next OuterBindings or Reset.
func (e *Evaluator) OuterBindings(x *xq.FLWORExpr) ([]Item, bool, error) {
	if len(x.Clauses) == 0 || x.Clauses[0].IsLet {
		return nil, false, nil
	}
	mark := len(e.stack)
	if err := e.eval(x.Clauses[0].In, nil); err != nil {
		e.stack = e.stack[:mark]
		return nil, true, err
	}
	e.outer = append(cleared(e.outer), e.stack[mark:]...)
	e.stack = e.stack[:mark]
	return e.outer, true, nil
}

// AppendTail evaluates the FLWOR's remaining clauses, where-filter and
// return for a single binding of its first (for) clause, and appends the
// nodes of the value to dst (atomic values are not view results).
// Different bindings may be evaluated by different Evaluators — over the
// same immutable catalog — and the concatenation of their outputs in
// binding order reproduces the single-evaluator result exactly.
//
// The binding's frame is recycled from one call to the next.
func (e *Evaluator) AppendTail(dst []*xmltree.Node, x *xq.FLWORExpr, binding Item) ([]*xmltree.Node, error) {
	f := e.loopFrame(x.Clauses[0].Var, nil)
	f.item[0] = binding
	mark := len(e.stack)
	err := e.evalClauses(x, 1, f)
	if err == nil {
		e.release(f)
		dst = AppendNodes(dst, e.stack[mark:])
	}
	e.stack = e.stack[:mark]
	return dst, err
}

// AppendNodes appends the nodes among items to dst.
func AppendNodes(dst []*xmltree.Node, items []Item) []*xmltree.Node {
	for _, it := range items {
		if n, ok := it.(*xmltree.Node); ok {
			dst = append(dst, n)
		}
	}
	return dst
}

// EvalUnit evaluates a FLWOR that opens with a for clause, as Eval does,
// over doc, the next unit document of a per-document pass, which the
// catalog must resolve, and returns the nodes of its value (atomic values
// are not view results) in one slice of exactly their number.
//
// Nothing of a unit outlives the next EvalUnit in the evaluator, so the
// unit's document and nodes may be memory the caller reuses. The document
// node doc binds to is the evaluator's own, rebound by the next EvalUnit;
// no other document node of a unit is cached. Built hash-join indices are
// kept, so a join over a side document is built once per evaluator: sound
// when only the first clause reads the unit document (core's partition
// rule), as EvalUnit loops over that clause and never hash-joins it.
// KeepsConstructed reports when a kept index holds constructed elements,
// which then live in the slab from unit to unit. Everything else that
// holds nodes — the value stack, the step buffers, the dedupe set and the
// loop frames — is scratch, rewritten before it is read.
func (e *Evaluator) EvalUnit(x *xq.FLWORExpr, doc *xmltree.Document) ([]*xmltree.Node, error) {
	e.unit, e.unitNode = doc, xmltree.Node{Tag: docNodeTag}
	if doc.Root != nil {
		e.unitKid[0] = doc.Root
		e.unitNode.Children = e.unitKid[:]
	}
	mark := len(e.stack)
	err := e.loop(x, 0, nil)
	var out []*xmltree.Node
	if err == nil {
		n := 0
		for _, it := range e.stack[mark:] {
			if _, ok := it.(*xmltree.Node); ok {
				n++
			}
		}
		if n > 0 {
			out = AppendNodes(make([]*xmltree.Node, 0, n), e.stack[mark:])
		}
	}
	e.stack = e.stack[:mark]
	return out, err
}

// evalClauses appends the FLWOR's value from clause idx on.
func (e *Evaluator) evalClauses(x *xq.FLWORExpr, idx int, en *env) error {
	if idx == len(x.Clauses) {
		if x.Where != nil {
			ok, err := e.evalBool(x.Where, en)
			if err != nil || !ok {
				return err
			}
		}
		return e.eval(x.Return, en)
	}
	cl := x.Clauses[idx]
	if cl.IsLet {
		v, err := e.Eval(cl.In, en)
		if err != nil {
			return err
		}
		return e.evalClauses(x, idx+1, en.bind(cl.Var, v))
	}
	// Hash-join fast path: the last clause is a for-loop whose sequence is
	// loop-invariant and whose where-clause is an equality with the loop
	// variable on exactly one side.
	if e.HashJoin && idx == len(x.Clauses)-1 {
		if ok, err := e.tryHashJoin(x, cl, en); ok || err != nil {
			return err
		}
	}
	return e.loop(x, idx, en)
}

// loop appends the FLWOR's value from its for clause idx on, binding the
// clause's sequence one item at a time.
func (e *Evaluator) loop(x *xq.FLWORExpr, idx int, en *env) error {
	cl := x.Clauses[idx]
	// The loop sequence is the region [mark, end). Each binding's results
	// land above it, and the region is dropped from under them at the end.
	mark := len(e.stack)
	if err := e.eval(cl.In, en); err != nil {
		return err
	}
	end := len(e.stack)
	f := e.loopFrame(cl.Var, en)
	for i := mark; i < end; i++ {
		if err := e.ctxErr(); err != nil {
			return err
		}
		f.item[0] = e.stack[i]
		if err := e.evalClauses(x, idx+1, f); err != nil {
			return err
		}
	}
	e.release(f)
	e.stack = append(e.stack[:mark], e.stack[end:]...)
	return nil
}

// planJoin analyses the FLWOR's last clause cl for the fast path: an
// equality where-clause over a loop-invariant sequence with the loop
// variable on exactly one side.
func planJoin(x *xq.FLWORExpr, cl xq.ForLetClause) joinPlan {
	cmp, isCmp := x.Where.(*xq.CmpExpr)
	if !isCmp || cmp.Op != pred.Eq || len(FreeVars(cl.In)) != 0 {
		return joinPlan{}
	}
	// Against a literal the where-clause is a selection by value ("07" = 7,
	// as the path index answers it); a hash table would match by spelling.
	_, litLeft := cmp.Left.(*xq.LiteralExpr)
	if _, litRight := cmp.Right.(*xq.LiteralExpr); litLeft || litRight {
		return joinPlan{}
	}
	leftVars, rightVars := FreeVars(cmp.Left), FreeVars(cmp.Right)
	switch {
	case onlyVar(leftVars, cl.Var) && !rightVars[cl.Var]:
		return joinPlan{keyExpr: cmp.Left, probeExpr: cmp.Right}
	case onlyVar(rightVars, cl.Var) && !leftVars[cl.Var]:
		return joinPlan{keyExpr: cmp.Right, probeExpr: cmp.Left}
	}
	return joinPlan{}
}

// tryHashJoin applies the equality-join fast path when eligible, appending
// the FLWOR's value. It returns ok=false when the FLWOR shape does not
// qualify.
func (e *Evaluator) tryHashJoin(x *xq.FLWORExpr, cl xq.ForLetClause, en *env) (bool, error) {
	jp, planned := e.joins[x]
	if !planned {
		jp = planJoin(x, cl)
		e.joins[x] = jp
	}
	if jp.keyExpr == nil {
		return false, nil
	}
	if jp.index == nil {
		var err error
		if jp.index, err = e.buildJoinIndex(jp.keyExpr, cl, en); err != nil {
			return true, err
		}
		e.joins[x] = jp
	}
	mark := len(e.stack)
	if err := e.eval(jp.probeExpr, en); err != nil {
		return true, err
	}
	probes := e.stack[mark:]
	e.JoinProbes += len(probes)
	// The matching positions, each once, in sequence order. One probe's
	// list is that already; several are merged in a region of e.positions,
	// which a join nested in the return clause only appends above.
	pmark := len(e.positions)
	var order []int32
	if len(probes) == 1 {
		order = jp.index.lookup(Atomize(probes[0]))
	} else {
		for _, p := range probes {
			e.positions = append(e.positions, jp.index.lookup(Atomize(p))...)
		}
		merged := e.positions[pmark:]
		slices.Sort(merged)
		order = slices.Compact(merged)
		e.positions = e.positions[:pmark+len(order)]
	}
	e.stack = e.stack[:mark]
	f := e.loopFrame(cl.Var, en)
	for _, i := range order {
		if err := e.ctxErr(); err != nil {
			return true, err
		}
		f.item[0] = jp.index.items[i]
		if err := e.eval(x.Return, f); err != nil {
			return true, err
		}
	}
	e.release(f)
	e.positions = e.positions[:pmark]
	return true, nil
}

// buildJoinIndex evaluates the loop sequence into the items of the
// evaluator's next join index, since every later probe indexes into it,
// and hashes each item's join keys, the values of key.
func (e *Evaluator) buildJoinIndex(key xq.Expr, cl xq.ForLetClause, en *env) (*joinIndex, error) {
	mark := len(e.stack)
	if err := e.eval(cl.In, en); err != nil {
		return nil, err
	}
	ix := e.newJoinIndex()
	ix.items = append(ix.items, e.stack[mark:]...)
	e.stack = e.stack[:mark]
	for _, item := range ix.items {
		if n, ok := item.(*xmltree.Node); ok && constructed(n) {
			e.keepsBuilt = true
		}
	}
	f := e.loopFrame(cl.Var, nil)
	for i, item := range ix.items {
		if err := e.ctxErr(); err != nil {
			return nil, err
		}
		f.item[0] = item
		if err := e.eval(key, f); err != nil {
			return nil, err
		}
		for _, k := range e.stack[mark:] {
			ix.add(Atomize(k), int32(i))
		}
		e.stack = e.stack[:mark]
	}
	e.release(f)
	ix.seal()
	return ix, nil
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
