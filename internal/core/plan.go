package core

// The query planner. A planned search (Options.Plan) consults the engine's
// catalog before running the PDT pipeline and serves from its view's
// skeleton when one is resident. The skeleton — the view's pruned
// evaluation output — skips PDT generation and evaluation, and the search
// re-scores it: skeletons are keyword-independent, because engine PDTs
// carry no term frequencies — collect derives each result's from the
// inverted indices, for a skeleton's results exactly as for freshly
// evaluated ones. One skeleton therefore rewrites ANY keyword query over
// its view — supersets, disjoint sets, either semantics — not just the
// conjunctive-superset case. The view stays virtual: only the winners are
// materialized from base data, as in every other search.
//
// The view's results reach the same collect, select and materialise phases
// as every other search, so planned answers are byte-identical to direct
// evaluation (ranks, scores, trees, snippets).
// Every resident skeleton is current, and every serve happens under the
// search's shard read locks, where the corpus (and hence the generation)
// cannot change for the view's documents.
//
// A search that falls through to direct evaluation records the view's
// skeleton for the next query.

import (
	"vxml/internal/catalog"
	"vxml/internal/xmltree"
)

// tryPlan is the skeleton half of the view-output phase: when the view has
// a resident catalog artifact it fills out.results from it and reports
// true; otherwise the caller evaluates directly. It runs under the plan's
// shard read locks, so the artifact stays current for the duration of the
// serve.
func (e *Engine) tryPlan(v *View, out *viewOutput) bool {
	art, source, id := e.Catalog.Artifact(v.Text)
	if art == nil {
		return false
	}
	out.results = art.Results
	out.stats.PlanSource, out.stats.PlanView = source, id
	e.Catalog.Access(v.Text, catalog.PlanRewritten)
	return true
}

// artifactFootprint estimates the resident bytes of a skeleton's results
// (PDT nodes, the 'c' ones Meta-marked, no TFs) for the artifact budget.
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
