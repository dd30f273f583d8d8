// Package baseline implements the "Baseline" comparator of the paper's
// evaluation (§5.1): materialize the entire view over the base documents at
// query time, then tokenize, score and rank the materialized results. Its
// cost is dominated by view materialization, which is what Figure 13
// shows; its scores are by construction the ground truth that the
// Efficient pipeline must reproduce exactly (Theorem 4.1).
package baseline

import (
	"context"
	"fmt"
	"time"

	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xqeval"
)

// Stats reports the Baseline cost breakdown in the shared core.Stats shape:
// EvalTime is evaluating and writing out the view, PostTime tokenizing,
// scoring and ranking; there is no PDT phase. Candidates counts the
// documents the view's QPTs resolved to and ShardsSearched the corpus
// shards whose read locks the run held (all of them: the comparator
// brackets with Engine.RLock).
type Stats struct {
	core.Stats
	// MaterializedBytes is the serialized size of the materialized view —
	// the write volume Efficient never produces.
	MaterializedBytes int
}

// Search materializes the view and evaluates the ranked keyword query over
// the materialized results. It never cancels; use SearchContext for
// deadlines and cancellation.
func Search(e *core.Engine, v *core.View, keywords []string, opts core.Options) ([]core.Result, *Stats, error) {
	return SearchContext(context.Background(), e, v, keywords, opts)
}

// SearchContext is Search with cooperative cancellation: ctx is checked
// between FLWOR bindings during materialization (through the evaluator)
// and between winners afterwards, and the returned error wraps ctx.Err().
// The engine read locks are released before SearchContext returns.
func SearchContext(ctx context.Context, e *core.Engine, v *core.View, keywords []string, opts core.Options) ([]core.Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("baseline: search interrupted: %w", err)
	}
	e.RLock()
	defer e.RUnlock()
	stats := &Stats{Stats: core.Stats{Workers: 1, ShardsSearched: e.Store.ShardCount(), PlanSource: catalog.PlanDirect}}
	if err := e.EachCandidate(v, func(*qpt.QPT, store.DocInfo) error {
		stats.Candidates++
		return nil
	}); err != nil {
		return nil, nil, err
	}
	kws, err := core.NormalizeKeywords(keywords)
	if err != nil {
		return nil, nil, err
	}

	start := time.Now()
	ev := xqeval.New(storeCatalog{e}, v.Funcs)
	ev.SetContext(ctx)
	items, err := ev.Eval(v.Expr, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: materializing view: %w", err)
	}
	var results []*xmltree.Node
	for _, it := range items {
		if n, ok := it.(*xmltree.Node); ok {
			results = append(results, n)
		}
	}
	// Materializing the view means producing the documents the keyword
	// search will run over: serialize every result (Quark's baseline spent
	// 58 of 59 seconds here on a 13MB input). The Efficient pipeline never
	// pays this.
	for _, n := range results {
		stats.MaterializedBytes += len(n.XMLString(""))
	}
	stats.EvalTime = time.Since(start)
	stats.ViewSize = len(results)

	start = time.Now()
	ranking := scoring.Rank(results, kws, !opts.Disjunctive, opts.K, scoring.FromBase)
	stats.Matched = ranking.Matched
	out := make([]core.Result, 0, len(ranking.Results))
	for i, sc := range ranking.Results {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("baseline: search interrupted: %w", err)
		}
		elem := scoring.Materialize(sc.Result, e.Store)
		out = append(out, core.Result{Rank: i + 1, Score: sc.Score, TFs: sc.Stats.TFs, Element: elem})
	}
	stats.PostTime = time.Since(start)
	stats.Total = stats.EvalTime + stats.PostTime
	return out, stats, nil
}

// storeCatalog evaluates the view directly over base documents; patterns
// resolve against the whole registered corpus in document ID order.
type storeCatalog struct{ e *core.Engine }

func (c storeCatalog) Doc(name string) *xmltree.Document { return c.e.Store.Doc(name) }

func (c storeCatalog) DocsMatching(pattern string) []*xmltree.Document {
	return store.DocsMatching(c.e.Store, pattern)
}
