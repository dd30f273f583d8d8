// Package gtp implements the "GTP" comparator of the paper's evaluation
// (§5.1): Generalized Tree Patterns [Chen et al., VLDB'03] with TermJoin
// [Al-Khalifa et al., SIGMOD'03], the state-of-the-art integration of
// structure and keyword search the paper compares against.
//
// The pipeline derives the same pruned trees as the Efficient system, but
// by the two mechanisms the paper identifies as GTP's cost sources:
//
//  1. structural joins over full per-tag element lists (instead of path
//     index probes), and
//  2. base-data access for join values and predicate evaluation (instead
//     of value retrieval from the Path-Values table).
//
// Downstream evaluation and scoring are shared with the Efficient
// pipeline, so GTP's results are identical and only its costs differ —
// which is exactly how the paper frames the comparison.
package gtp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pdt"
	"vxml/internal/pred"
	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xqeval"
)

// Stats reports the GTP cost breakdown in the shared core.Stats shape:
// PDTTime is the structural joins over tag lists, EvalTime view evaluation
// over the joined trees, PostTime scoring + materialization. Candidates
// counts the documents the view's QPTs resolved to and ShardsSearched the
// corpus shards whose read locks the run held (all of them: the comparator
// brackets with Engine.RLock).
type Stats struct {
	core.Stats
	// BaseValueFetches counts base-data accesses for join values and
	// predicates — the cost Efficient avoids via the Path-Values table.
	BaseValueFetches int
	TagListEntries   int // total tag-list entries scanned
	// IntermediatePairs counts the (ancestor, descendant) tuples the
	// binary structural joins materialize.
	IntermediatePairs int
}

// Search evaluates the ranked keyword query using GTP with TermJoin. It
// never cancels; use SearchContext for deadlines and cancellation.
func Search(e *core.Engine, v *core.View, keywords []string, opts core.Options) ([]core.Result, *Stats, error) {
	return SearchContext(context.Background(), e, v, keywords, opts)
}

// SearchContext is Search with cooperative cancellation: ctx is checked
// between per-document structural-join passes, between FLWOR bindings
// during evaluation (through the evaluator) and between winners during
// materialization, and the returned error wraps ctx.Err(). A candidate
// whose stored indices cannot be read fails the search with the store's
// error, as it fails the Efficient pipeline. The engine read locks are
// released before SearchContext returns.
func SearchContext(ctx context.Context, e *core.Engine, v *core.View, keywords []string, opts core.Options) ([]core.Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("gtp: search interrupted: %w", err)
	}
	e.RLock()
	defer e.RUnlock()
	stats := &Stats{Stats: core.Stats{Workers: 1, ShardsSearched: e.Store.ShardCount(), PlanSource: catalog.PlanDirect}}
	kws, err := core.NormalizeKeywords(keywords)
	if err != nil {
		return nil, nil, err
	}

	start := time.Now()
	docs := xqeval.MapCatalog{}
	// A collection pattern expands to one structural-join pass per
	// matching document; docs resolves the pattern back to the pruned
	// documents in corpus order.
	if err := e.EachCandidate(v, func(q *qpt.QPT, info store.DocInfo) error {
		stats.Candidates++
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("gtp: search interrupted: %w", err)
		}
		pix, iix, err := e.Store.StoredIndices(info.Name)
		if err != nil {
			return fmt.Errorf("gtp: indices of %q: %w", info.Name, err)
		}
		pruned := joinQPT(e, q, info.Name, info.DocID, pix, iix, kws, stats)
		if pruned.Doc == nil {
			// No element qualified: the document still binds, as a
			// childless document node, as in the Efficient pipeline.
			pruned.Doc = &xmltree.Document{Name: info.Name, DocID: info.DocID}
		}
		docs[info.Name] = pruned.Doc
		return nil
	}); err != nil {
		return nil, nil, err
	}
	stats.PDTTime = time.Since(start)

	start = time.Now()
	ev := xqeval.New(docs, v.Funcs)
	ev.SetContext(ctx)
	items, err := ev.Eval(v.Expr, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("gtp: evaluating view: %w", err)
	}
	var results []*xmltree.Node
	for _, it := range items {
		if n, ok := it.(*xmltree.Node); ok {
			results = append(results, n)
		}
	}
	stats.EvalTime = time.Since(start)
	stats.ViewSize = len(results)

	start = time.Now()
	ranking := scoring.Rank(results, kws, !opts.Disjunctive, opts.K, scoring.FromPDT)
	stats.Matched = ranking.Matched
	out := make([]core.Result, 0, len(ranking.Results))
	for i, sc := range ranking.Results {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("gtp: search interrupted: %w", err)
		}
		elem := scoring.Materialize(sc.Result, e.Store)
		out = append(out, core.Result{Rank: i + 1, Score: sc.Score, TFs: sc.Stats.TFs, Element: elem})
	}
	stats.PostTime = time.Since(start)
	stats.Total = stats.PDTTime + stats.EvalTime + stats.PostTime
	return out, stats, nil
}

// candSet is a Dewey-sorted candidate list for one QPT node.
type candSet struct {
	ids []dewey.ID
}

func (c *candSet) has(id dewey.ID) bool {
	i := sort.Search(len(c.ids), func(i int) bool { return dewey.Compare(c.ids[i], id) >= 0 })
	return i < len(c.ids) && dewey.Equal(c.ids[i], id)
}

// joinPair is one (ancestor, descendant) tuple materialized by a binary
// structural join, as in Timber's stack-tree joins.
type joinPair struct {
	anc, desc dewey.ID
}

// structuralJoin materializes the (ancestor, descendant) pairs between a
// sorted ancestor candidate list and a sorted descendant candidate list.
func structuralJoin(ancs *candSet, descs *candSet, axis pathindex.Axis, stats *Stats) []joinPair {
	var pairs []joinPair
	for _, d := range descs.ids {
		if axis == pathindex.Child {
			if len(d) > 1 && ancs.has(d.Parent()) {
				pairs = append(pairs, joinPair{anc: d.Parent(), desc: d})
			}
			continue
		}
		for a := d.Parent(); len(a) > 0; a = a.Parent() {
			if ancs.has(a) {
				pairs = append(pairs, joinPair{anc: a, desc: d})
			}
		}
	}
	stats.IntermediatePairs += len(pairs)
	return pairs
}

// joinQPT computes the pruned tree for one QPT against one document it
// resolved to, via structural joins over tag lists, fetching predicate and
// join values from base data.
func joinQPT(e *core.Engine, q *qpt.QPT, docName string, docID int32, pix *pathindex.Index, iix *invindex.Index, kws []string, stats *Stats) *pdt.PDT {
	// Bottom-up: candidate elements per QPT node (descendant constraints),
	// computed with pair-producing binary structural joins.
	ce := map[*qpt.Node]*candSet{}
	var computeCE func(n *qpt.Node)
	computeCE = func(n *qpt.Node) {
		for _, edge := range n.Edges {
			computeCE(edge.Child)
		}
		postings := pix.TagPostings(n.Tag)
		stats.TagListEntries += len(postings)
		set := &candSet{ids: make([]dewey.ID, 0, len(postings))}
		for _, p := range postings {
			// Predicates require the element value: GTP fetches it from
			// base storage (counted).
			if len(n.Preds) > 0 {
				stats.BaseValueFetches++
				sub := e.Store.Subtree(p.ID)
				// predicates apply to leaf values only
				if sub == nil || !sub.IsLeaf() || !pred.All(n.Preds, sub.Value) {
					continue
				}
			}
			set.ids = append(set.ids, p.ID)
		}
		// One binary structural join per mandatory edge; the surviving
		// ancestors are the distinct ancestors of the pair list.
		for _, edge := range n.Edges {
			if !edge.Mandatory {
				continue
			}
			pairs := structuralJoin(set, ce[edge.Child], edge.Axis, stats)
			next := &candSet{ids: make([]dewey.ID, 0, len(pairs))}
			for _, pr := range pairs {
				next.ids = append(next.ids, pr.anc)
			}
			sortIDs(next.ids)
			next.ids = dedupeSorted(next.ids)
			set = next
		}
		// GTP extracts join values and keyword containment for every
		// structural candidate from base data / inverted lists — it cannot
		// defer this the way PDT generation does (§6: "GTP requires
		// accessing the base data to support value joins").
		if n.V {
			for _, id := range set.ids {
				stats.BaseValueFetches++
				e.Store.Subtree(id)
			}
		}
		if n.C {
			for _, id := range set.ids {
				for _, k := range kws {
					iix.Lookup(k).SubtreeTF(id) // TermJoin probe
				}
			}
		}
		ce[n] = set
	}
	for _, edge := range q.Root.Edges {
		computeCE(edge.Child)
	}

	// below reports whether id stands where edge e puts it below the
	// elements of parents: the root element (any element, for '//') below
	// the virtual root.
	below := func(id dewey.ID, e *qpt.Edge, parents *candSet) bool {
		if e.From == q.Root {
			return e.Axis == pathindex.Descendant || len(id) == 1
		}
		if e.Axis == pathindex.Child {
			return len(id) > 1 && parents.has(id.Parent())
		}
		for p := id.Parent(); len(p) > 0; p = p.Parent() {
			if parents.has(p) {
				return true
			}
		}
		return false
	}

	// Top-down: PDT elements (ancestor constraints).
	pe := map[*qpt.Node]*candSet{}
	var computePE func(n *qpt.Node)
	computePE = func(n *qpt.Node) {
		set := &candSet{}
		for _, id := range ce[n].ids {
			if below(id, n.Parent, pe[n.Parent.From]) {
				set.ids = append(set.ids, id)
			}
		}
		pe[n] = set
		for _, edge := range n.Edges {
			computePE(edge.Child)
		}
	}
	for _, edge := range q.Root.Edges {
		computePE(edge.Child)
	}

	// Top-down again, over whole tag lists: the elements whose root path
	// matches a node's pattern, predicates and mandatory edges aside. One
	// that matches a 'v' node's carries its value whichever node selects
	// it, since the evaluator may compare it (qpt.PathMatch.Valued).
	valued := map[string]bool{}
	path := map[*qpt.Node]*candSet{}
	var computePath func(n *qpt.Node)
	computePath = func(n *qpt.Node) {
		set := &candSet{}
		for _, p := range pix.TagPostings(n.Tag) {
			if below(p.ID, n.Parent, path[n.Parent.From]) {
				set.ids = append(set.ids, p.ID)
				if n.V {
					valued[p.ID.String()] = true
				}
			}
		}
		path[n] = set
		for _, edge := range n.Edges {
			computePath(edge.Child)
		}
	}
	for _, edge := range q.Root.Edges {
		computePath(edge.Child)
	}

	// Assemble the pruned tree; values and byte lengths come from base
	// data (GTP has no Path-Values table), and an annotated element's tag
	// with them, tf values from TermJoin over the inverted lists.
	type annot struct{ needV, needC bool }
	selected := map[string]*pdt.Element{}
	anns := map[string]*annot{}
	var collect func(n *qpt.Node)
	collect = func(n *qpt.Node) {
		for _, id := range pe[n].ids {
			key := id.String()
			el := selected[key]
			if el == nil {
				el = &pdt.Element{ID: id, Tag: n.Tag}
				selected[key] = el
				anns[key] = &annot{}
			}
			a := anns[key]
			a.needV = a.needV || n.V || valued[key]
			a.needC = a.needC || n.C
		}
		for _, edge := range n.Edges {
			collect(edge.Child)
		}
	}
	for _, edge := range q.Root.Edges {
		collect(edge.Child)
	}
	// A content-marked virtual root stands for a bound document node the
	// view returns: the root element is its content. Its tag comes from
	// base data below, with its byte length.
	if q.Root.C {
		root := dewey.ID{docID}
		key := root.String()
		if selected[key] == nil {
			selected[key] = &pdt.Element{ID: root}
			anns[key] = &annot{}
		}
		anns[key].needC = true
	}
	elements := make([]*pdt.Element, 0, len(selected))
	for key, el := range selected {
		a := anns[key]
		el.NeedV, el.NeedC = a.needV, a.needC
		if a.needV || a.needC {
			stats.BaseValueFetches++
			if base := e.Store.Subtree(el.ID); base != nil {
				el.Tag, el.ByteLen = base.Tag, base.ByteLen
				if base.IsLeaf() {
					el.Value = base.Value
					el.HasValue = true
				}
			}
		}
		if a.needC {
			el.TFs = make([]int, len(kws))
			for i, k := range kws {
				el.TFs[i] = iix.Lookup(k).SubtreeTF(el.ID) // TermJoin
			}
		}
		elements = append(elements, el)
	}
	return pdt.BuildPruned(elements, docName)
}

func sortIDs(ids []dewey.ID) {
	sort.Slice(ids, func(i, j int) bool { return dewey.Less(ids[i], ids[j]) })
}

func dedupeSorted(ids []dewey.ID) []dewey.ID {
	out := ids[:0]
	for _, id := range ids {
		if len(out) == 0 || !dewey.Equal(out[len(out)-1], id) {
			out = append(out, id)
		}
	}
	return out
}
