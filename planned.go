// The planned-search protocol: the serving discipline around the paper's
// pipeline — normalize options, page as a window of a deeper ranking, exact
// result-cache hit, TopK-window rewrite, uncached run, generation-stamped
// insert, TF remap. It is written once, here; Database.SearchContext and
// the cluster coordinator differ only in how an uncached search is computed
// (a RunFunc) and which catalog holds the entries.

package vxml

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"vxml/internal/catalog"
	"vxml/internal/core"
)

// RunFunc computes one uncached search for PlannedSearch. opts arrive
// normalized with Offset already folded into TopK (opts.Offset is 0);
// pageOffset is the number of leading ranked winners to leave out of the
// returned page, whose Rank numbers stay absolute. A RunFunc that fails may
// still return the results and stats it produced (a degraded cluster's
// surviving partitions): PlannedSearch hands them to the caller with the
// error and caches nothing.
type RunFunc func(ctx context.Context, opts *Options, pageOffset int) ([]Result, *Stats, error)

// cachedSearch is the value held by one query-result cache entry: results
// with TF maps keyed by normalized keyword, stats frozen at compute time.
type cachedSearch struct {
	results []Result
	stats   Stats
}

// newCachedSearch snapshots a computed answer for insertion; stored is
// already a private copy of the results, and the Nodes slice is copied here,
// so nothing a caller does to the values it was handed reaches the entry.
func newCachedSearch(stored []Result, stats *Stats) *cachedSearch {
	e := &cachedSearch{results: stored, stats: *stats}
	e.stats.Nodes = slices.Clone(stats.Nodes)
	return e
}

// statsFor copies the entry's stats for one caller, labelled with the tier
// that served it. The timing fields describe the original computation.
func (e *cachedSearch) statsFor(source, viewID string) *Stats {
	st := e.stats
	st.Nodes = slices.Clone(st.Nodes)
	st.PlanSource, st.PlanView = source, viewID
	return &st
}

// resultKey is the result-cache key of one (view, keywords, options)
// search: exactly the inputs that decide the pipeline's output.
func resultKey(viewText string, keywords []string, topK int, disjunctive bool, approach Approach) string {
	return catalog.Key(viewText, keywords,
		catalog.IntPart(topK),
		catalog.BoolPart(disjunctive),
		catalog.IntPart(int(approach)))
}

// PlanProbe reports which of cat's tiers would answer a cached (Cache:
// true) conjunctive Efficient search over viewText with these keywords,
// without evaluating anything: "cache_hit" when the shared unpaged
// result-cache entry is resident (exact and TopK-window queries are both
// served from it), "rewritten" when cat holds the view's skeleton, else
// "direct". viewID is the view's catalog ID ("" when it is not
// registered). The probe touches no counter and no LRU recency beyond a
// cache touch, so it is safe to call from diagnostics surfaces.
func PlanProbe(cat *catalog.Catalog, viewText string, keywords []string) (source, viewID string) {
	if _, ok := cat.Probe(resultKey(viewText, keywords, 0, false, Efficient)); ok {
		return catalog.PlanCacheHit, cat.IDOf(viewText)
	}
	_, source, viewID = cat.Artifact(viewText)
	return source, viewID
}

// PlannedSearch serves one search over the view with definition viewText
// through cat's result tiers, calling run only when no tier answers. It is
// the whole of SearchContext's contract apart from the pipeline itself: a
// dead ctx fails before any lookup (a warm cache never masks a
// cancellation); options are normalized before the cache key is built; a
// page (Offset > 0) is sliced from the shared unpaged entry when Cache is
// set, and otherwise ranks only the top Offset+TopK and hands the offset
// to run so the skipped prefix is never materialized; a run that fails
// returns whatever page-sliced results and stats it produced and inserts
// nothing.
func PlannedSearch(ctx context.Context, cat *catalog.Catalog, viewText string, keywords []string, opts *Options, run RunFunc) ([]Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("vxml: search interrupted: %w", err)
	}
	opts = normalizeOptions(opts)
	if opts.Offset > 0 {
		// A page is a window of a deeper ranking; rank numbers stay
		// absolute either way. With the cache on, recurse as the unpaged
		// TopK=0 search, so every subsequent page of the query is sliced
		// from that one shared cached entry rather than each burning an
		// LRU slot.
		if opts.Cache {
			full := *opts
			full.Offset, full.TopK = 0, 0
			results, stats, err := PlannedSearch(ctx, cat, viewText, keywords, &full, run)
			return pageSlice(results, opts.Offset, opts.TopK), stats, err
		}
		return run(ctx, rankWindow(opts), opts.Offset)
	}
	if !opts.Cache {
		return run(ctx, opts, 0)
	}
	// No lock spans the lookup-compute-insert sequence; instead the
	// generation is read before computing and the insert is discarded if a
	// mutation bumped it in between (catalog.PutAt), so a result computed
	// here can never be inserted at a generation newer than its data.
	key := resultKey(viewText, keywords, opts.TopK, opts.Disjunctive, opts.Approach)
	gen := cat.Gen()
	if val, ok := cat.Get(key); ok {
		hit := val.(*cachedSearch)
		return remapTF(hit.results, keywords), hit.statsFor(catalog.PlanCacheHit, cat.IDOf(viewText)), nil
	}
	// Window rewrite: a top-K ranking is a prefix of the full ranking (the
	// heap's total order is the sort order), so a cached unranked TopK=0
	// entry answers any TopK>0 query over the same (view, keywords,
	// semantics) by slicing — same ranks, scores, trees and snippets as a
	// direct top-K search.
	if opts.TopK > 0 {
		fullKey := resultKey(viewText, keywords, 0, opts.Disjunctive, opts.Approach)
		if val, ok := cat.Probe(fullKey); ok {
			hit := val.(*cachedSearch)
			cat.Access(viewText, catalog.PlanRewritten)
			return remapTF(pageSlice(hit.results, 0, opts.TopK), keywords), hit.statsFor(catalog.PlanRewritten, cat.IDOf(viewText)), nil
		}
	}
	out, stats, err := run(ctx, opts, 0)
	if err != nil {
		return out, stats, err
	}
	stored := storedResults(out)
	cat.PutAt(key, newCachedSearch(stored, stats), gen, resultsFootprint(stored))
	return out, stats, nil
}

// Replay delivers an eagerly computed page as a sequence: the results in
// rank order — stopping with a wrapped ctx.Err() if ctx dies between two of
// them — then err, if non-nil, as the final (zero Result, error) pair. It
// is the delivery half of every Results path that cannot defer
// materialization (a cacheable run, a comparator pipeline, a cluster).
func Replay(ctx context.Context, results []Result, err error) iter.Seq2[Result, error] {
	return func(yield func(Result, error) bool) {
		for _, r := range results {
			if ctxErr := ctx.Err(); ctxErr != nil {
				yield(Result{}, fmt.Errorf("vxml: streaming interrupted: %w", ctxErr))
				return
			}
			if !yield(r, nil) {
				return
			}
		}
		if err != nil {
			yield(Result{}, err)
		}
	}
}

// normalizeOptions maps a nil or out-of-range Options to its canonical
// form. Every negative TopK or Offset means the same thing as 0, and every
// negative Parallelism the same thing as 1 (a pool of one — exactly how
// core.Options reads it); normalizing before the cache key is built
// keeps each family one cache entry, and library callers can never hand
// the engine an out-of-range value the HTTP layer would have rejected.
func normalizeOptions(opts *Options) *Options {
	if opts == nil {
		return &Options{}
	}
	if opts.TopK < 0 || opts.Offset < 0 || opts.Parallelism < 0 {
		o := *opts
		o.TopK = max(o.TopK, 0)
		o.Offset = max(o.Offset, 0)
		if o.Parallelism < 0 {
			o.Parallelism = 1
		}
		return &o
	}
	return opts
}

// rankWindow is the uncached search of opts' page: Offset folded into a
// ranking just deep enough to cover the window (the top Offset+TopK, or
// every result when TopK is 0), with Offset 0. The caller leaves the first
// opts.Offset winners out of what that search returns.
func rankWindow(opts *Options) *Options {
	w := *opts
	w.Offset = 0
	if opts.TopK > 0 {
		w.TopK = opts.Offset + opts.TopK
	}
	return &w
}

// pageSlice cuts the [offset, offset+k) window out of the full ranked
// result list (k = 0: everything from offset on). The slice aliases the
// input, which the caller owns.
func pageSlice(results []Result, offset, k int) []Result {
	if offset >= len(results) {
		return nil
	}
	page := results[offset:]
	if k > 0 && k < len(page) {
		page = page[:k]
	}
	return page
}

// resultsFootprint approximates the resident bytes of a cached entry for
// the cache's byte bound: the dominant XML and snippet strings plus a small
// per-result and per-TF-key allowance.
func resultsFootprint(in []Result) int {
	n := 0
	for _, r := range in {
		n += len(r.XML) + len(r.Snippet) + 64
		for k := range r.TF {
			n += len(k) + 16
		}
	}
	return n
}

// storedResults deep-copies a result slice for insertion into the cache,
// rekeying the TF maps by normalized keyword so a hit can be re-expressed
// in any caller's keyword forms. The copy also keeps cache entries immutable
// no matter what callers do with the originally returned values.
func storedResults(in []Result) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		tf := make(map[string]int, len(r.TF))
		for k, v := range r.TF {
			tf[core.NormalizeKeyword(k)] = v
		}
		r.TF = tf
		out[i] = r
	}
	return out
}

// remapTF copies cached results for return to a caller, keying each TF map
// by the caller's own keyword forms — exactly what the uncached path would
// have produced for them.
func remapTF(in []Result, keywords []string) []Result {
	out := make([]Result, len(in))
	for i, r := range in {
		tf := make(map[string]int, len(keywords))
		for _, k := range keywords {
			tf[k] = r.TF[core.NormalizeKeyword(k)]
		}
		r.TF = tf
		out[i] = r
	}
	return out
}
