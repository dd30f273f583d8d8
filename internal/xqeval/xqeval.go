// Package xqeval is the "traditional query evaluator" of the system
// architecture (paper Figure 3): it evaluates the supported XQuery subset
// over a catalog of XML documents. The same evaluator runs unchanged over
// base documents (the Baseline pipeline) and over PDTs (the Efficient
// pipeline), which is exactly the property the paper's architecture relies
// on ("our proposed architecture requires no changes to the XML query
// evaluator").
//
// The evaluator includes a hash-join fast path for equality where-clauses
// over loop-invariant sequences; it stands in for the value indexes a
// production engine such as Quark would use. Every pipeline runs with it
// on; Evaluator.HashJoin turns it off only so the oracle tests can check
// it against the nested-loop evaluation it replaces.
//
// Evaluation allocates per result, not per binding. Every expression
// appends its value to one value stack per Evaluator, and each consumer —
// a constructor's children, a comparison's operands, a filter's or loop's
// sequence, a join's probes, a path step's base — reads its own region on
// top of the stack and cuts the stack back when done. A loop binds one
// frame and overwrites its item per iteration, and path steps run through
// two reused buffers. Nothing is boxed per binding: nodes are pointers
// already, and a literal's item was boxed once, when the query was parsed
// (xq.LiteralExpr.Item). What outlives an evaluation is the one exact copy
// Eval or EvalUnit hands back, the nodes AppendTail appends to the
// caller's slice, the sequence OuterBindings leaves in the evaluator's
// storage until its next call or Reset, and the elements it constructed:
// on the heap, or in the caller's Slab (SetSlab), which the caller rewinds
// and reuses once it has copied out the results it keeps. A caller that
// keeps a result past the next EvalUnit also copies what it reaches of the
// unit's document node, the evaluator's own, and of any scratch the unit's
// document lives in.
//
// An evaluator can serve pass after pass (Reset). Its hash-join indices
// are rebuilt in every pass, since their contents are the pass's, but
// into storage it keeps: cleared maps that number the keys, one flat
// position array and a retained buffer for the indexed sequence. Reset
// forgets everything else of the last pass — the join plans and indices,
// the cached document nodes, the unit, KeepsConstructed and the context —
// and zeroes every reference its buffers retain, keeping their capacity
// (Cap) and its slab, so a reset evaluator holds no document, node or
// view alive.
package xqeval

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"vxml/internal/docname"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// Item is one item of an XQuery value sequence: an element node or an
// atomic string value.
type Item any

// Catalog resolves fn:doc(name) references. A nil document means the name
// is unknown; the evaluator treats it as an empty sequence so that views
// over empty PDTs evaluate to empty results.
type Catalog interface {
	Doc(name string) *xmltree.Document
}

// CollectionCatalog is the optional Catalog extension that resolves
// fn:collection name patterns (docname.IsPattern) to every matching
// document. Implementations must return documents in a deterministic
// corpus order — document ID (insertion) order everywhere in this system —
// because the returned order is the view's result order and ranking breaks
// score ties by it. A catalog without this extension evaluates patterns as
// empty sequences.
type CollectionCatalog interface {
	DocsMatching(pattern string) []*xmltree.Document
}

// MapCatalog is a Catalog backed by a map. Patterns resolve against the
// map keys with matches ordered by document ID (ties by name, for
// programmatic documents that never got one).
type MapCatalog map[string]*xmltree.Document

// Doc implements Catalog.
func (m MapCatalog) Doc(name string) *xmltree.Document { return m[name] }

// DocsMatching implements CollectionCatalog.
func (m MapCatalog) DocsMatching(pattern string) []*xmltree.Document {
	var docs []*xmltree.Document
	for name, d := range m {
		if d != nil && docname.Match(pattern, name) {
			docs = append(docs, d)
		}
	}
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].DocID != docs[j].DocID {
			return docs[i].DocID < docs[j].DocID
		}
		return docs[i].Name < docs[j].Name
	})
	return docs
}

// Evaluator evaluates parsed queries against a catalog.
type Evaluator struct {
	catalog Catalog
	funcs   map[string]*xq.FuncDecl
	// HashJoin enables the equality-join fast path (on by default).
	HashJoin bool
	// JoinProbes counts hash-join probes for diagnostics.
	JoinProbes int

	ctx   context.Context
	slab  *Slab // where constructors build; nil: the heap
	joins map[*xq.FLWORExpr]joinPlan
	// indexes is the storage of the join indices, kept across Reset: the
	// first built of them hold this pass's indices, the rest are empty.
	indexes   []*joinIndex
	built     int
	docNodes  map[*xmltree.Document]*xmltree.Node
	callDepth int
	// keepsBuilt records that a join index, kept from call to call, holds
	// a constructed element (KeepsConstructed).
	keepsBuilt bool
	// unit is EvalUnit's current unit document and unitNode its document
	// node, rebound by every EvalUnit over the one-child slice unitKid.
	unit     *xmltree.Document
	unitNode xmltree.Node
	unitKid  [1]*xmltree.Node

	// stack is the value stack every expression appends its value to (see
	// eval); positions holds merged hash-join match positions under the same
	// discipline.
	stack     []Item
	positions []int32
	// steps are evalSteps' two alternating buffers and seen its dedupe set,
	// live only within one evalSteps call.
	steps [2][]Item
	seen  map[*xmltree.Node]bool
	// outer holds the sequence OuterBindings returned last.
	outer []Item
	// free chains the binding frames of finished loops for reuse.
	free *env
}

// New returns an evaluator for the query's function environment.
func New(catalog Catalog, funcs map[string]*xq.FuncDecl) *Evaluator {
	e := &Evaluator{
		joins:    map[*xq.FLWORExpr]joinPlan{},
		docNodes: map[*xmltree.Document]*xmltree.Node{},
	}
	e.Reset(catalog, funcs)
	return e
}

// Reset readies the evaluator for another pass, over catalog with funcs,
// as New would return it but for its slab (SetSlab), which it keeps for
// its caller to rewind, and the capacity of its buffers: the value stack,
// the step buffers, the dedupe set, the position buffer, the binding
// frames, and the join indices' maps and flat storage. It forgets every
// reference the last pass left in them — its join indices and plans, its
// cached document nodes, its unit, whether it KeepsConstructed, and its
// context — so a reset evaluator keeps no document, node or view alive.
func (e *Evaluator) Reset(catalog Catalog, funcs map[string]*xq.FuncDecl) {
	e.catalog, e.funcs = catalog, funcs
	e.HashJoin, e.JoinProbes = true, 0
	e.ctx, e.callDepth, e.keepsBuilt = nil, 0, false
	e.resetJoins()
	clear(e.docNodes)
	e.unit, e.unitNode, e.unitKid[0] = nil, xmltree.Node{}, nil
	e.stack = cleared(e.stack)
	e.positions = e.positions[:0]
	e.steps[0], e.steps[1] = cleared(e.steps[0]), cleared(e.steps[1])
	clear(e.seen)
	e.outer = cleared(e.outer)
	for f := e.free; f != nil; f = f.parent {
		f.name = ""
	}
}

// cleared returns buf emptied, its whole capacity zeroed: buffers are cut
// back without zeroing while a pass runs.
func cleared(buf []Item) []Item {
	clear(buf[:cap(buf)])
	return buf[:0]
}

// resetJoins forgets every join plan and clears every join index built
// since the last reset, keeping their storage.
func (e *Evaluator) resetJoins() {
	clear(e.joins)
	for _, ix := range e.indexes[:e.built] {
		ix.clear()
	}
	e.built = 0
}

// Cap is the number of elements the largest buffer the evaluator keeps
// across Reset holds without growing: its value stack, step buffers,
// position buffer, outer bindings, each join index's sequence, keys and
// positions, and its slab's nodes or child pointers (Slab.Cap). Each of
// them retains at most Cap elements, and the dedupe set and the join
// indices' maps no more entries than the step buffers, the stack and the
// key lists hold.
func (e *Evaluator) Cap() int {
	c := max(cap(e.stack), cap(e.steps[0]), cap(e.steps[1]), cap(e.positions), cap(e.outer))
	for _, ix := range e.indexes {
		c = max(c, ix.cap())
	}
	if e.slab != nil {
		c = max(c, e.slab.Cap())
	}
	return c
}

// EvalQuery evaluates the query body in an empty environment.
func (e *Evaluator) EvalQuery(q *xq.Query) ([]Item, error) {
	e.funcs = q.Functions
	e.resetJoins()
	return e.Eval(q.Body, nil)
}

// SetContext arms cooperative cancellation: subsequent evaluation checks
// ctx between FLWOR bindings, filter items and hash-join build steps — the
// loops whose trip counts grow with the corpus — and unwinds with ctx.Err()
// (context.Canceled or context.DeadlineExceeded) at the first failed check.
// A nil ctx (the default) disables the checks. The evaluator is
// single-threaded, so SetContext must not race with Eval.
func (e *Evaluator) SetContext(ctx context.Context) { e.ctx = ctx }

// ctxErr reports the armed context's error, nil when no context is set.
func (e *Evaluator) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// docNodeTag is the tag of the document-node wrapper; no element can have
// it ('#' is not a name character).
const docNodeTag = "#document"

// SetSlab makes every constructor build its element in s from now on (a
// nil s: on the heap, the default). The evaluator never rewinds s; its
// caller may, between calls, unless KeepsConstructed.
func (e *Evaluator) SetSlab(s *Slab) { e.slab = s }

// constructed reports whether n is an element a constructor built: it has
// no Dewey ID, and its tag is a name, where the wrappers that stand for a
// document or hold several top-level PDT elements have a tag starting with
// '#'.
func constructed(n *xmltree.Node) bool {
	return len(n.ID) == 0 && !strings.HasPrefix(n.Tag, "#")
}

// KeepsConstructed reports whether one of the hash-join indices the
// evaluator keeps from call to call (see EvalUnit) holds a constructed
// element, which the next EvalUnit or AppendTail may then reach again: the
// caller must not rewind the evaluator's slab from then on. No other
// element a call constructs is read by a later call.
func (e *Evaluator) KeepsConstructed() bool { return e.keepsBuilt }

// docNode returns the cached document node for doc: a "#document" wrapper
// whose single child is the root element, so a leading /roottag step works
// as in XPath. A root-less document (a PDT in which no element qualified)
// is a childless document node: it still binds, as its base document
// would, but no step below it finds anything. The wrapper only references
// the root, so catalog documents stay unchanged — which is what lets
// concurrent evaluators share one catalog. EvalUnit's unit document has
// the evaluator's own document node instead of a cached one.
func (e *Evaluator) docNode(doc *xmltree.Document) *xmltree.Node {
	if doc == e.unit {
		return &e.unitNode
	}
	dn := e.docNodes[doc]
	if dn == nil {
		dn = &xmltree.Node{Tag: docNodeTag}
		if doc.Root != nil {
			dn.Children = []*xmltree.Node{doc.Root}
		}
		e.docNodes[doc] = dn
	}
	return dn
}

// env is an immutable chain of variable bindings; the context item is bound
// under the name ".". A loop's frame (loopFrame) is the exception: the loop
// overwrites its one item per iteration, which is safe because nothing
// keeps an env once the iteration that saw it ends — let and call bindings
// hold copies (Eval), never a frame's item.
type env struct {
	name   string
	value  []Item
	parent *env
	item   [1]Item // value's storage in a loop frame
}

func (en *env) bind(name string, value []Item) *env {
	return &env{name: name, value: value, parent: en}
}

func (en *env) lookup(name string) ([]Item, bool) {
	for cur := en; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.value, true
		}
	}
	return nil, false
}

// loopFrame binds name to a one-item sequence in front of parent for the
// duration of one loop, which sets frame.item[0] per iteration and hands
// the frame back with release when it ends. Frames are recycled, so a loop
// costs no allocation once the evaluator has run a loop as deep.
func (e *Evaluator) loopFrame(name string, parent *env) *env {
	f := e.free
	if f == nil {
		f = &env{}
	} else {
		e.free = f.parent
	}
	f.name, f.parent = name, parent
	f.value = f.item[:]
	return f
}

// release returns a finished loop's frame for reuse. A loop that fails
// skips it: the frame is simply not recycled.
func (e *Evaluator) release(f *env) {
	f.item[0] = nil
	f.parent, e.free = e.free, f
}

// Eval evaluates expr in the given environment (nil for empty). The
// returned slice is the caller's own: the one copy of the value, taken off
// the evaluator's stack.
func (e *Evaluator) Eval(expr xq.Expr, en *env) ([]Item, error) {
	mark := len(e.stack)
	return e.take(mark, e.eval(expr, en))
}

// take cuts the stack back to mark and returns, unless err is set, an
// exact copy of the value above it.
func (e *Evaluator) take(mark int, err error) ([]Item, error) {
	var out []Item
	if err == nil && len(e.stack) > mark {
		out = slices.Clone(e.stack[mark:])
	}
	e.stack = e.stack[:mark]
	return out, err
}

// eval appends the value of expr in environment en to e.stack. A consumer
// of a subexpression's value notes mark := len(e.stack), evaluates onto the
// stack, reads its region e.stack[mark:] and cuts the stack back to mark.
// Regions therefore nest like calls: a nested evaluation writes only above
// the regions live beneath it, and everyone appends to the field e.stack
// rather than to a copy of its header, which would go on writing into a
// backing array a nested region has since reused.
func (e *Evaluator) eval(expr xq.Expr, en *env) error {
	switch x := expr.(type) {
	case *xq.DocExpr:
		if docname.IsPattern(x.Name) {
			// fn:collection over a name pattern: the concatenation of every
			// matching document's node, in corpus (document ID) order. A
			// catalog without collection support yields an empty sequence,
			// like an unknown single document.
			cc, ok := e.catalog.(CollectionCatalog)
			if !ok {
				return nil
			}
			for _, doc := range cc.DocsMatching(x.Name) {
				if doc != nil {
					e.stack = append(e.stack, e.docNode(doc))
				}
			}
			return nil
		}
		if doc := e.catalog.Doc(x.Name); doc != nil {
			e.stack = append(e.stack, e.docNode(doc))
		}
	case *xq.VarExpr:
		v, ok := en.lookup(x.Name)
		if !ok {
			return fmt.Errorf("xqeval: unbound variable $%s", x.Name)
		}
		e.stack = append(e.stack, v...)
	case *xq.DotExpr:
		v, ok := en.lookup(".")
		if !ok {
			return fmt.Errorf("xqeval: no context item for '.'")
		}
		e.stack = append(e.stack, v...)
	case *xq.LiteralExpr:
		e.stack = append(e.stack, x.Item)
	case *xq.StepExpr:
		mark := len(e.stack)
		if err := e.eval(x.Base, en); err != nil {
			return err
		}
		e.evalSteps(mark, x.Steps)
	case *xq.FilterExpr:
		return e.evalFilter(x, en)
	case *xq.SeqExpr:
		for _, it := range x.Items {
			if err := e.eval(it, en); err != nil {
				return err
			}
		}
	case *xq.CondExpr:
		cond, err := e.evalBool(x.Cond, en)
		if err != nil {
			return err
		}
		if cond {
			return e.eval(x.Then, en)
		}
		return e.eval(x.Else, en)
	case *xq.ElementExpr:
		return e.evalCtor(x, en)
	case *xq.CallExpr:
		return e.evalCall(x, en)
	case *xq.FLWORExpr:
		return e.evalClauses(x, 0, en)
	case *xq.CmpExpr, *xq.FTContainsExpr:
		// Predicates in item position yield their boolean as a string so
		// that ebv works; the grammar only produces them in predicate
		// positions.
		ok, err := e.evalBool(expr, en)
		if ok {
			e.stack = append(e.stack, "true")
		}
		return err
	default:
		return fmt.Errorf("xqeval: unsupported expression %T", expr)
	}
	return nil
}

// evalFilter keeps the base items whose predicate holds, compacting the
// base's region in place: each predicate evaluates above the region and
// cuts back to its end.
func (e *Evaluator) evalFilter(x *xq.FilterExpr, en *env) error {
	mark := len(e.stack)
	if err := e.eval(x.Base, en); err != nil {
		return err
	}
	end := len(e.stack)
	dot := e.loopFrame(".", en)
	kept := mark
	for i := mark; i < end; i++ {
		if err := e.ctxErr(); err != nil {
			return err
		}
		item := e.stack[i]
		dot.item[0] = item
		ok, err := e.evalBool(x.Pred, dot)
		if err != nil {
			return err
		}
		if ok {
			e.stack[kept] = item
			kept++
		}
	}
	e.release(dot)
	e.stack = e.stack[:kept]
	return nil
}
