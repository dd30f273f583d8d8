package core

import (
	"context"
	"iter"
)

// ResultsSeq evaluates the search and yields the ranked winners one at a
// time, extending the paper's deferred materialization to the delivery
// path: a winner's base subtree is fetched and its snippet cut only when
// the consumer pulls it, and a consumer that stops early (or a canceled
// ctx) never pays for the rest. offset skips that many leading winners
// without materializing them; Rank numbers keep their absolute position in
// the full ranking, so yielded results are byte-identical to the
// corresponding slice of a SearchPage call with the same options.
//
// The pipeline runs — and the shard read locks are held — inside the first
// resumption of the returned sequence, not inside ResultsSeq itself; the
// locks are released before the first yield. A pipeline failure or a ctx
// cancellation is delivered as the final (zero Result, non-nil error)
// pair. The sequence is single-use.
func (e *Engine) ResultsSeq(ctx context.Context, v *View, keywords []string, opts Options, offset int) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		// Pinned for the whole consumption: winners materialize lock-free
		// as the consumer pulls them, possibly long after planning, and the
		// pin keeps concurrently replaced or deleted documents' subtrees
		// resolvable until the sequence finishes.
		e.Store.Pin()
		defer e.Store.Unpin()
		ranked, out, err := e.rankedSearch(ctx, v, keywords, opts)
		if err != nil {
			yield(Result{}, err)
			return
		}
		// The store is the fetcher directly: the sequence yields no Stats,
		// so there is no per-search fetch count to keep.
		out.winners(ctx, ranked, offset, e.Store)(yield)
	}
}
