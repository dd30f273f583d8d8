// Streaming result delivery: Results extends the paper's deferred
// materialization (§4.2.2.2 — only top-k winners touch base data) to the
// delivery path, so a consumer that stops pulling early never pays for the
// winners it did not look at.

package vxml

import (
	"context"
	"iter"
)

// Results evaluates the ranked keyword query and yields results one at a
// time, in rank order, as a Go 1.23 range-over-func sequence:
//
//	for r, err := range db.Results(ctx, view, keywords, opts) {
//		if err != nil { ... }
//		fmt.Println(r.Rank, r.XML)
//	}
//
// The yielded results — rank, score, TF map, XML, snippet — are
// byte-identical to what SearchContext returns for the same (view,
// keywords, options), including Offset/TopK paging; only the delivery
// differs. On the Efficient pipeline each winner's subtree is materialized
// from base data only when it is yielded, so breaking out of the loop
// skips the remaining fetches entirely; with Options.Cache set or a
// comparator pipeline selected, the page is computed eagerly (populating
// or hitting the query-result cache exactly like SearchContext) and then
// replayed.
//
// The pipeline runs inside the first resumption of the sequence, not
// inside Results itself, and holds no shard lock while yielding. A
// pipeline failure or ctx cancellation is delivered as the final
// (zero Result, non-nil error) pair, after which the sequence stops; the
// error wraps ctx.Err() when cancellation caused it. The sequence is
// single-use and yields no per-search Stats.
func (db *Database) Results(ctx context.Context, v *View, keywords []string, opts *Options) iter.Seq2[Result, error] {
	opts = normalizeOptions(opts)
	return func(yield func(Result, error) bool) {
		if opts.Approach != Efficient || opts.Cache {
			// No deferred-materialization path here: comparators
			// materialize internally, and a cacheable run must compute the
			// full entry anyway. Compute the page, then replay it.
			results, _, err := db.SearchContext(ctx, v, keywords, opts)
			Replay(ctx, results, err)(yield)
			return
		}
		// Rank deep enough to cover the requested window, then let the
		// engine skip the first Offset winners unmaterialized.
		copts := engineOptions(rankWindow(opts))
		for r, err := range db.engine.ResultsSeq(ctx, v.inner, keywords, copts, opts.Offset) {
			if err != nil {
				yield(Result{}, err)
				return
			}
			if !yield(toResult(r, keywords), nil) {
				return
			}
		}
	}
}
