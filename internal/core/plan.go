package core

// The query planner. A planned search (Options.Plan) consults the engine's
// catalog before running the PDT pipeline and serves from the strongest
// live artifact of its view:
//
//   - A materialized view answers from stored result trees and a token
//     index — no PDT generation, no evaluation, no base-data access.
//   - A skeleton (the view's pruned evaluation output) skips PDT
//     generation and evaluation and re-scores: skeletons are
//     keyword-independent, because engine PDTs carry no term frequencies
//     — collect derives each result's from the inverted indices, for a
//     skeleton's results exactly as for freshly evaluated ones. One skeleton
//     therefore rewrites ANY keyword query over its view — supersets,
//     disjoint sets, either semantics — not just the conjunctive-superset
//     case.
//
// Both tiers hand back the view's results with the direct pipeline's
// scoring inputs reproduced exactly — the same per-result Stats, fed to the
// same select and materialise phases as every other search — so planned
// answers are byte-identical to direct evaluation (ranks, scores, trees,
// snippets). Artifacts are generation-stamped and every serve happens
// under the search's shard read locks, where the corpus (and hence the
// generation) cannot change for the view's documents.
//
// A search that falls through to direct evaluation records the view's
// skeleton for the next query and counts toward promotion; when the
// catalog reports the view hot, the search materializes it inline after
// releasing its locks (single-flighted under promoteMu).

import (
	"context"

	"vxml/internal/catalog"
	"vxml/internal/scoring"
	"vxml/internal/xmltree"
)

// tryPlan is the artifact half of the view-output phase: when the view has
// a live catalog artifact it fills out.results from it (and out.rstats from
// a materialized view; a skeleton's results are scored by collect, like
// direct ones) and reports served = true; otherwise the caller evaluates
// directly. It runs
// under the plan's shard read locks, so a live (current-generation)
// artifact stays live for the duration of the serve.
func (e *Engine) tryPlan(ctx context.Context, v *View, p *plan, out *viewOutput) (served bool, err error) {
	kws, stats := out.kws, out.stats
	if mv, id, ok := e.Catalog.Materialized(v.Text); ok {
		perKw := make([][]int, len(kws))
		for j, kw := range kws {
			perKw[j] = mv.TF(kw)
		}
		out.results, out.rstats = mv.Trees, make([]scoring.Stats, len(mv.Trees))
		for i := range out.rstats {
			if err := ctxErr(ctx); err != nil {
				return false, err
			}
			tfs := make([]int, len(kws))
			for j := range perKw {
				tfs[j] = perKw[j][i]
			}
			out.rstats[i] = scoring.Stats{TFs: tfs, ByteLen: mv.ByteLens[i]}
		}
		stats.PlanSource, stats.PlanView = catalog.PlanMaterialized, id
		e.Catalog.AccessPlanned(v.Text, catalog.PlanMaterialized)
		return true, nil
	}
	if sk, id, ok := e.Catalog.Skeleton(v.Text); ok {
		out.results = sk.Results
		stats.PlanSource, stats.PlanView = catalog.PlanRewritten, id
		// Rewrite serves count toward promotion too: a view whose skeleton
		// keeps answering is the one worth materializing fully.
		out.promotable = e.Catalog.AccessPlanned(v.Text, catalog.PlanRewritten)
		return true, nil
	}
	return false, nil
}

// skeletonFootprint estimates the resident bytes of a skeleton forest for
// the catalog's artifact budget.
func skeletonFootprint(results []*xmltree.Node) int {
	total := 0
	for _, r := range results {
		total += treeFootprint(r)
	}
	return total
}

// maybePromote materializes the view inline when the search that produced
// out pushed it over the promotion threshold. It runs after the search has
// released its shard read locks but while the caller's store pin is held
// (materialization fetches base subtrees). promoteMu single-flights
// concurrent promotions; a loser re-checks under the lock and finds the
// artifact already live.
//
// Whichever tier produced out — direct evaluation or a skeleton — it holds
// every view result in view order and, once collected, each result's exact
// FromPDT byte length, so the stored artifact carries precisely the
// ByteLen a direct search computes. The token histogram is built over the
// materialized trees with the same scoping as scoring.Collect(FromBase),
// which the Baseline-vs-Efficient equivalence suites pin equal to the
// PDT-derived statistics. The artifact is stamped with the generation the
// search read under its shard locks, so a promotion that races a mutation
// is refused.
func (e *Engine) maybePromote(ctx context.Context, v *View, out *viewOutput) {
	if !out.promotable {
		return
	}
	e.promoteMu.Lock()
	defer e.promoteMu.Unlock()
	if _, _, ok := e.Catalog.Materialized(v.Text); ok {
		return
	}
	mv := &catalog.MatView{
		Trees:    make([]*xmltree.Node, len(out.results)),
		ByteLens: make([]int, len(out.results)),
		Tokens:   map[string][]catalog.TokenCount{},
	}
	for i, res := range out.results {
		if ctxErr(ctx) != nil {
			return
		}
		tree := scoring.Materialize(res, e.Store)
		mv.Trees[i] = tree
		mv.ByteLens[i] = out.rstats[i].ByteLen
		counts := map[string]int{}
		treeTokens(tree, counts)
		for tok, c := range counts {
			mv.Tokens[tok] = append(mv.Tokens[tok], catalog.TokenCount{Index: i, TF: c})
		}
		mv.Bytes += treeFootprint(tree)
	}
	for tok, entries := range mv.Tokens {
		mv.Bytes += len(tok) + 16*len(entries)
	}
	// A mutation since planGen was read makes the stamp stale and the
	// store a no-op — the artifact would describe a corpus that no longer
	// exists.
	e.Catalog.StoreMaterialized(v.Text, out.planGen, mv)
}

// treeTokens accumulates one materialized result's token histogram with
// the same scoping as scoring.Collect(FromBase): each topmost
// Dewey-ID-bearing subtree contributes every token it contains, wholesale;
// constructed wrapper elements contribute nothing.
func treeTokens(n *xmltree.Node, counts map[string]int) {
	if len(n.ID) > 0 {
		n.Walk(func(x *xmltree.Node) {
			if x.Value == "" {
				return
			}
			xmltree.VisitTokens(x.Value, func(tok string) bool { counts[tok]++; return true })
		})
		return
	}
	for _, c := range n.Children {
		treeTokens(c, counts)
	}
}

// treeFootprint estimates the resident bytes of one artifact tree — a
// skeleton result (PDT nodes, the 'c' ones Meta-marked, no TFs) or a
// materialized one (new wrappers around the store's own base subtrees,
// which the artifact keeps alive and so is charged for in full) — for the
// artifact budget.
func treeFootprint(root *xmltree.Node) int {
	total := 0
	root.Walk(func(n *xmltree.Node) {
		total += 64 + len(n.Tag) + len(n.Value) + 4*len(n.ID)
		if n.Meta != nil {
			total += 32
		}
	})
	return total
}

// PlanProbe predicts, without executing a search, how a planned search
// over v would be served right now: PlanMaterialized when a live
// materialized artifact exists, PlanRewritten for a live skeleton, else
// PlanDirect. The second return is the view's catalog ID ("" before first
// compile). The exact result cache is not consulted — whether it hits
// depends on the full option set, which the caller (the Database layer)
// checks itself.
func (e *Engine) PlanProbe(v *View) (source, viewID string) {
	if _, id, ok := e.Catalog.Materialized(v.Text); ok {
		return catalog.PlanMaterialized, id
	}
	if _, id, ok := e.Catalog.Skeleton(v.Text); ok {
		return catalog.PlanRewritten, id
	}
	return catalog.PlanDirect, e.Catalog.IDOf(v.Text)
}
