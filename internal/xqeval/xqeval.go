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
package xqeval

import (
	"context"
	"fmt"
	"sort"

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

	ctx       context.Context
	joins     map[*xq.FLWORExpr]*joinPlan
	docNodes  map[*xmltree.Document]*xmltree.Node
	callDepth int
}

// New returns an evaluator for the query's function environment.
func New(catalog Catalog, funcs map[string]*xq.FuncDecl) *Evaluator {
	if funcs == nil {
		funcs = map[string]*xq.FuncDecl{}
	}
	return &Evaluator{
		catalog:  catalog,
		funcs:    funcs,
		HashJoin: true,
		joins:    map[*xq.FLWORExpr]*joinPlan{},
		docNodes: map[*xmltree.Document]*xmltree.Node{},
	}
}

// EvalQuery evaluates the query body in an empty environment.
func (e *Evaluator) EvalQuery(q *xq.Query) ([]Item, error) {
	e.funcs = q.Functions
	e.joins = map[*xq.FLWORExpr]*joinPlan{}
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

// docNode returns the cached document node for doc: a "#document" wrapper
// whose single child is the root element, so a leading /roottag step works
// as in XPath. The wrapper references the root without rewriting its
// parent pointer, keeping catalog documents immutable — which is what lets
// concurrent evaluators share one catalog.
func (e *Evaluator) docNode(doc *xmltree.Document) *xmltree.Node {
	dn := e.docNodes[doc]
	if dn == nil {
		dn = &xmltree.Node{Tag: docNodeTag, Children: []*xmltree.Node{doc.Root}}
		e.docNodes[doc] = dn
	}
	return dn
}

// env is an immutable chain of variable bindings; the context item is bound
// under the name ".".
type env struct {
	name   string
	value  []Item
	parent *env
}

func (en *env) bind(name string, value []Item) *env {
	return &env{name: name, value: value, parent: en}
}

// env1 carries a single-item binding and its one-item sequence in a single
// allocation. FLWOR loops, filters and hash-join probes bind one item per
// iteration, so the separate []Item{item} literal of the generic bind was
// half the evaluator's environment churn.
type env1 struct {
	e   env
	buf [1]Item
}

// bind1 binds a one-item sequence, allocating once instead of twice.
func (en *env) bind1(name string, item Item) *env {
	x := &env1{buf: [1]Item{item}}
	x.e = env{name: name, value: x.buf[:1:1], parent: en}
	return &x.e
}

func (en *env) lookup(name string) ([]Item, bool) {
	for cur := en; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.value, true
		}
	}
	return nil, false
}

// Eval evaluates expr in the given environment (nil for empty).
func (e *Evaluator) Eval(expr xq.Expr, en *env) ([]Item, error) {
	switch x := expr.(type) {
	case *xq.DocExpr:
		if docname.IsPattern(x.Name) {
			// fn:collection over a name pattern: the concatenation of every
			// matching document's node, in corpus (document ID) order. A
			// catalog without collection support yields an empty sequence,
			// like an unknown single document.
			cc, ok := e.catalog.(CollectionCatalog)
			if !ok {
				return nil, nil
			}
			var out []Item
			for _, doc := range cc.DocsMatching(x.Name) {
				if doc == nil || doc.Root == nil {
					continue
				}
				out = append(out, e.docNode(doc))
			}
			return out, nil
		}
		doc := e.catalog.Doc(x.Name)
		if doc == nil || doc.Root == nil {
			return nil, nil
		}
		return []Item{e.docNode(doc)}, nil
	case *xq.VarExpr:
		v, ok := en.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("xqeval: unbound variable $%s", x.Name)
		}
		return v, nil
	case *xq.DotExpr:
		v, ok := en.lookup(".")
		if !ok {
			return nil, fmt.Errorf("xqeval: no context item for '.'")
		}
		return v, nil
	case *xq.LiteralExpr:
		return []Item{x.Value}, nil
	case *xq.StepExpr:
		base, err := e.Eval(x.Base, en)
		if err != nil {
			return nil, err
		}
		return evalSteps(base, x.Steps), nil
	case *xq.FilterExpr:
		base, err := e.Eval(x.Base, en)
		if err != nil {
			return nil, err
		}
		var out []Item
		for _, item := range base {
			if err := e.ctxErr(); err != nil {
				return nil, err
			}
			ok, err := e.evalBool(x.Pred, en.bind1(".", item))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, item)
			}
		}
		return out, nil
	case *xq.SeqExpr:
		var out []Item
		for _, it := range x.Items {
			v, err := e.Eval(it, en)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xq.CondExpr:
		cond, err := e.evalBool(x.Cond, en)
		if err != nil {
			return nil, err
		}
		if cond {
			return e.Eval(x.Then, en)
		}
		return e.Eval(x.Else, en)
	case *xq.ElementExpr:
		return e.evalCtor(x, en)
	case *xq.CallExpr:
		return e.evalCall(x, en)
	case *xq.FLWORExpr:
		return e.evalFLWOR(x, en)
	case *xq.CmpExpr, *xq.FTContainsExpr:
		// Predicates in item position yield their boolean as a string so
		// that ebv works; the grammar only produces them in predicate
		// positions.
		ok, err := e.evalBool(expr, en)
		if err != nil {
			return nil, err
		}
		if ok {
			return []Item{"true"}, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("xqeval: unsupported expression %T", expr)
}
