package core

// The query planner. A planned search (Options.Plan) consults the engine's
// catalog before running the PDT pipeline and serves from its view's
// artifact when one is resident. The artifact's skeleton — the view's
// pruned evaluation output — skips PDT generation and evaluation, and the
// search re-scores it: skeletons are keyword-independent, because engine
// PDTs carry no term frequencies — collect derives each result's from the
// inverted indices, for a skeleton's results exactly as for freshly
// evaluated ones. One skeleton therefore rewrites ANY keyword query over
// its view — supersets, disjoint sets, either semantics — not just the
// conjunctive-superset case. Once the view is promoted, the artifact also
// holds every result's prebuilt tree, and the winners are taken from there
// instead of being materialized from base data: the scoring is the same
// (Theorem 4.1), only the materialise phase is skipped.
//
// Either way the view's results reach the same collect and select phases
// as every other search, so planned answers are byte-identical to direct
// evaluation (ranks, scores, trees, snippets).
// Every resident artifact is current, and every serve happens under the
// search's shard read locks, where the corpus (and hence the generation)
// cannot change for the view's documents.
//
// A search that falls through to direct evaluation records the view's
// skeleton for the next query and counts toward promotion; when the
// catalog reports the view hot, the search builds the trees inline after
// releasing its locks (single-flighted under promoteMu).

import (
	"context"

	"vxml/internal/catalog"
	"vxml/internal/scoring"
	"vxml/internal/xmltree"
)

// tryPlan is the artifact half of the view-output phase: when the view has
// a resident catalog artifact it fills out.results (and out.trees, once the
// view is promoted) from it and reports true; otherwise the caller
// evaluates directly. It runs under the plan's shard read locks, so the
// artifact stays current for the duration of the serve.
func (e *Engine) tryPlan(v *View, out *viewOutput) bool {
	art, source, id := e.Catalog.Artifact(v.Text)
	if art == nil {
		return false
	}
	out.results, out.trees = art.Results, art.Trees
	out.stats.PlanSource, out.stats.PlanView = source, id
	// Rewrite serves count toward promotion too: a view whose skeleton
	// keeps answering is the one worth materializing fully.
	out.promotable = e.Catalog.AccessPlanned(v.Text, source)
	return true
}

// maybePromote builds the view's result trees inline when the search that
// produced out pushed it over the promotion threshold. It runs after the
// search has released its shard read locks but while the caller's store
// pin is held (materialization fetches base subtrees). promoteMu
// single-flights concurrent promotions; a loser re-checks under the lock
// and finds the trees already resident.
//
// Whichever tier produced out — direct evaluation or the skeleton — it
// holds every view result in view order, so the trees line up with the
// skeleton's results position by position (a direct search at the same
// generation evaluates the same forest). The trees are stamped with the
// generation the search read under its shard locks, so a promotion that
// races a mutation is refused.
func (e *Engine) maybePromote(ctx context.Context, v *View, out *viewOutput) {
	if !out.promotable {
		return
	}
	e.promoteMu.Lock()
	defer e.promoteMu.Unlock()
	if _, source, _ := e.Catalog.Artifact(v.Text); source != catalog.PlanRewritten {
		return // promoted already, or no skeleton to promote
	}
	trees := make([]*xmltree.Node, len(out.results))
	for i, res := range out.results {
		if ctxErr(ctx) != nil {
			return
		}
		trees[i] = scoring.Materialize(res, e.Store)
	}
	e.Catalog.Promote(v.Text, out.planGen, trees, artifactFootprint(trees))
}

// artifactFootprint estimates the resident bytes of artifact trees — a
// skeleton's results (PDT nodes, the 'c' ones Meta-marked, no TFs) or
// prebuilt ones (new wrappers around the store's own base subtrees, which
// the artifact keeps alive and so is charged for in full) — for the
// artifact budget.
func artifactFootprint(roots []*xmltree.Node) int {
	total := 0
	for _, root := range roots {
		root.Walk(func(n *xmltree.Node) {
			total += 64 + len(n.Tag) + len(n.Value) + 4*len(n.ID)
			if n.Meta != nil {
				total += 32
			}
		})
	}
	return total
}
