package core

// The query planner. A planned search (Options.Plan) consults the engine's
// catalog before running the PDT pipeline and serves from its view's
// skeleton when one is resident. The skeleton — the view's pruned
// evaluation output — skips PDT generation and evaluation, and the search
// re-scores it: skeletons are keyword-independent, because engine PDTs
// carry no term frequencies — the view-output pass's collector derives
// each result's from the inverted indices, for a skeleton's results
// exactly as for freshly evaluated ones. One skeleton therefore rewrites ANY keyword query over
// its view — supersets, disjoint sets, either semantics — not just the
// conjunctive-superset case. The view stays virtual: only the winners are
// materialized from base data, as in every other search.
//
// The view's results reach the same collector (as result chunks of the
// pass), select and materialise phases as every other search, so planned
// answers are byte-identical to direct evaluation (ranks, scores, trees,
// snippets). Every resident skeleton is current: a search takes it while
// it plans, under its shard read locks, where the corpus (and hence the
// generation) cannot change for the view's documents.
//
// A search that falls through to direct evaluation records the view's
// skeleton for the next query, stamped with the generation it planned at:
// a mutation that lands during its pass makes the store a refused no-op.

import "vxml/internal/xmltree"

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
