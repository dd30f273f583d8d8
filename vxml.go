// Package vxml implements efficient ranked keyword search over virtual
// (unmaterialized) XML views, reproducing Shao et al., "Efficient Keyword
// Search over Virtual XML Views", VLDB 2007.
//
// A Database holds XML documents with path and inverted-list indices. A
// View is an XQuery expression (joins, nesting, predicates) over those
// documents that is never materialized. Search evaluates a ranked keyword
// query over the view by (1) deriving Query Pattern Trees from the view
// definition, (2) building Pruned Document Trees from the indices alone,
// (3) running the view over the PDTs, and (4) scoring with element-level
// TF-IDF and materializing only the top-k winners — with scores and rank
// order provably identical to materializing the whole view.
//
// Quick start:
//
//	db := vxml.Open()
//	db.MustAdd("books.xml", booksXML)
//	db.MustAdd("reviews.xml", reviewsXML)
//	view, err := db.DefineView(`
//	  for $book in fn:doc(books.xml)/books//book
//	  where $book/year > 1995
//	  return <bookrevs>
//	           <book>{$book/title}</book>,
//	           {for $rev in fn:doc(reviews.xml)/reviews//review
//	            where $rev/isbn = $book/isbn
//	            return $rev/content}
//	         </bookrevs>`)
//	results, stats, err := db.Search(view, []string{"xml", "search"}, nil)
//
// # Sharding and concurrency
//
// A Database is safe for concurrent use. The corpus is partitioned into
// shards (documents hash-assigned by name; see OpenShards), each behind its
// own lock, and each document's path and inverted-list indices are stored
// beside it, in the same shard entry. Search and Query hold read locks
// only on the shards their view touches, and only while they plan — resolve
// their candidate documents and snapshot those documents' indices; Explain
// holds every shard's read lock while it reads the indices. All of them
// run in parallel with each other.
// Add and MustAdd parse and index outside any lock, then take one shard's
// write lock for the single store write that publishes the document and
// both its indices together. A concurrent search therefore plans over the
// document collection either entirely before or entirely after an ingest —
// never a document without its indices — and answers from the collection
// as of its planning instant. Its planning stalls for the publication, not
// for the parse; the ingest waits only for searches still planning, never
// for PDT generation or evaluation; and an ingest into one shard never
// contends with a search over another. The same guarantees hold one layer
// down for direct users of internal/core.Engine.
//
// # Parallel search
//
// Options.Parallelism bounds a worker pool the Efficient pipeline fans the
// search out over: per-candidate-document PDT generation (keyword lookup,
// QPT matching, tree construction), view evaluation partitioned over the
// outer FLWOR bindings, and per-result stat collection; one sequential
// top-k selection follows. 0 (the default) uses GOMAXPROCS, 1 is a pool of
// one running the same functions inline; ranked and unranked results are
// byte-identical at every setting, with score ties broken deterministically
// by view position (document order).
//
// # Document lifecycle
//
// The corpus is mutable: Replace atomically swaps a document's content
// (the replacement is a new document in global document order — collection
// views enumerate it last; only the name is stable) and Delete removes one.
// Views are virtual, so every search that starts after a mutation reflects
// it on every pipeline, while searches already in flight complete against
// the old contents: replaced and deleted documents are tombstoned, not
// dropped, until the last search that planned before the mutation has
// materialized its winners. Both mutations invalidate the query-result
// cache exactly like Add. Save persists the corpus (document IDs, shard
// count and order included) and Load reopens it with identical search
// behavior.
//
// # Collection views
//
// fn:collection("part-*") in a view ranges over every document whose name
// matches the '*' wildcard pattern, in ingest (document ID) order — so one
// view can span an unbounded, growing corpus. Patterns compile against an
// empty corpus (they may match nothing today and much after the next Add);
// literal fn:doc names are still checked at DefineView time.
//
// # Result caching
//
// Setting Options.Cache serves repeated identical queries from an LRU of
// ranked results bounded both by entry count and by resident bytes (so
// unranked full-result entries cannot hold unbounded memory). The cache
// key is the view definition text, the
// sorted lowercase keyword set, and every result-affecting option (TopK,
// Disjunctive, Approach), so two searches share an entry exactly when the
// paper's pipeline would compute identical output for them. Every corpus
// change — Add, Replace, Delete — bumps a generation counter and drops all
// resident entries, so a cached response is never served across a change. Hits are observable
// via Stats.PlanSource ("cache_hit") and aggregate counters via CacheStats. Cached and
// uncached paths return identical results, scores and rank order; cache
// misses cost one map lookup. Query caches exactly like Search: its
// entries are keyed by the query text (which defines the view) and the
// keywords and semantics its ftcontains clause names, so a repeat Query
// still parses and compiles its text but skips evaluation, and its pages
// share one unpaged entry like any other search's.
//
// # HTTP service
//
// Package internal/server (binary: cmd/vxmlserve) exposes a Database over
// JSON HTTP, every route under /v1: POST /v1/documents ingests XML,
// PUT/DELETE /v1/documents/{name} replace and remove documents,
// POST /v1/views compiles named views, POST /v1/search runs ranked keyword
// queries (POST /v1/search/stream delivers them as NDJSON), POST /v1/explain
// renders a plan, and GET /v1/stats reports corpus and cache counters.
// Example round trip:
//
//	vxmlserve -demo -addr :8344 &
//	curl -s localhost:8344/v1/search -d '{"view":"demo","keywords":["xml","search"],"top_k":3,"cache":true}'
package vxml

import (
	"context"
	"fmt"

	"vxml/internal/baseline"
	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/gtp"
	"vxml/internal/store"
	"vxml/internal/xq"
)

// Database is a collection of XML documents with the indices required for
// keyword search over virtual views. It is safe for concurrent use; see the
// package documentation for the locking discipline.
type Database struct {
	engine *core.Engine
	// catalog is the engine's view catalog (never a separate instance):
	// one generation counter and one artifact store serve the engine's
	// planner tiers and this layer's exact result cache alike, so a
	// mutation invalidates every tier atomically under its shard lock.
	catalog *catalog.Catalog
}

// newDatabase wraps an engine, sharing its catalog.
func newDatabase(eng *core.Engine) *Database {
	return &Database{engine: eng, catalog: eng.Catalog}
}

// Open creates an empty database with a result cache of
// catalog.DefaultCapacity entries and store.DefaultShardCount corpus
// shards.
func Open() *Database {
	return OpenShards(0)
}

// OpenShards creates an empty database whose corpus is partitioned into n
// shards (n <= 0 selects store.DefaultShardCount). Documents are
// hash-assigned to shards by name; the shard count never affects query
// results, only which ingests and searches contend.
func OpenShards(n int) *Database {
	return newDatabase(core.New(store.NewSharded(n)))
}

// Add parses, stores and indexes an XML document under the given name
// (referenced from views as fn:doc(name)). It invalidates the catalog —
// the query-result cache and every planner artifact — so every subsequent
// Search recomputes against the grown collection. Adding a duplicate name
// returns an error wrapping ErrDuplicateDocument.
//
// The invalidation happens inside the engine, under the home shard's write
// lock, so the registration and the generation bump are one atomic event:
// any cache entry or artifact computed against the pre-Add collection is
// stale by the time the post-Add generation exists (Search stamps its
// insert with the generation read before computing; see catalog.PutAt).
func (db *Database) Add(name, xmlText string) error {
	return db.engine.AddXML(name, xmlText)
}

// MustAdd is Add that panics on error, for tests and examples.
func (db *Database) MustAdd(name, xmlText string) {
	if err := db.Add(name, xmlText); err != nil {
		panic(err)
	}
}

// Replace atomically swaps the document registered under name for a new
// parse of xmlText. Views are virtual, so every subsequent search — by
// literal fn:doc reference or collection pattern, on any pipeline — runs
// against the replacement; the query-result cache is invalidated exactly as
// by Add. The replacement is a new document in global document order (it
// receives a fresh document ID), so collection views enumerate it after the
// documents that were already present. Searches already in flight complete
// against the old contents. Replacing a name that was never added returns
// an error wrapping ErrUnknownDocument.
func (db *Database) Replace(name, xmlText string) error {
	return db.ReplaceContext(context.Background(), name, xmlText)
}

// ReplaceContext is Replace with a cancellation pre-flight: a replace
// against an already-canceled or expired ctx returns its wrapped ctx.Err()
// without parsing. (Parsing and index construction are CPU-bound and brief;
// they are not interrupted mid-way.)
func (db *Database) ReplaceContext(ctx context.Context, name, xmlText string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("vxml: replace interrupted: %w", err)
	}
	return db.engine.ReplaceXML(name, xmlText)
}

// Delete removes the document registered under name. Every subsequent
// search runs against the shrunken corpus (a literal fn:doc view over the
// name simply yields nothing; collection patterns no longer enumerate it),
// and the query-result cache is invalidated exactly as by Add. Searches
// already in flight complete against the old contents. Deleting a name that
// was never added returns an error wrapping ErrUnknownDocument.
func (db *Database) Delete(name string) error {
	return db.DeleteContext(context.Background(), name)
}

// DeleteContext is Delete with a cancellation pre-flight, returning a
// wrapped ctx.Err() for a dead ctx without touching the corpus.
func (db *Database) DeleteContext(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("vxml: delete interrupted: %w", err)
	}
	return db.engine.Delete(name)
}

// DocumentNames returns the names of all loaded documents.
func (db *Database) DocumentNames() []string {
	infos := db.engine.Store.Infos()
	names := make([]string, len(infos))
	for i, d := range infos {
		names[i] = d.Name
	}
	return names
}

// TotalBytes reports the summed serialized size of all documents.
func (db *Database) TotalBytes() int {
	return db.engine.Store.TotalBytes()
}

// SubtreeFetches reports the cumulative count of base-data subtree fetches
// the store has served (the Efficient pipeline's only base-data access,
// performed for materialized winners). Benchmarks report deltas of it to
// show deferred materialization paying off; per-search counts are in
// Stats.BaseData.
func (db *Database) SubtreeFetches() int { return db.engine.Store.SubtreeFetches() }

// CacheStats returns a snapshot of the catalog counters: the exact
// query-result cache plus the view registry and planner-tier statistics.
func (db *Database) CacheStats() catalog.Stats { return db.catalog.Stats() }

// PlanProbe reports which catalog tier would answer a cached (Cache: true)
// conjunctive Efficient search over v with the given keywords, without
// evaluating anything (see the package-level PlanProbe).
func (db *Database) PlanProbe(v *View, keywords []string) (source, viewID string) {
	return PlanProbe(db.catalog, v.inner.Text, keywords)
}

// ShardStats returns a snapshot of per-shard corpus counters (document
// count and summed serialized bytes per shard).
func (db *Database) ShardStats() []store.ShardInfo { return db.engine.Store.ShardInfos() }

// View is a compiled virtual view.
type View struct {
	inner *core.View
}

// Definition returns the view's XQuery text.
func (v *View) Definition() string { return v.inner.Text }

// DefineView compiles a view definition: an XQuery expression in the
// supported grammar (FLWOR, child/descendant paths, leaf-value predicates,
// element constructors, non-recursive functions). Malformed input,
// including text that is not valid UTF-8, returns a wrapped *ParseError; a
// reference to an absent document returns a wrapped ErrUnknownDocument.
func (db *Database) DefineView(xquery string) (*View, error) {
	return db.DefineViewContext(context.Background(), xquery)
}

// DefineViewContext is DefineView with a cancellation pre-flight: a
// compile against an already-canceled or expired ctx returns its wrapped
// ctx.Err() without parsing. (QPT generation is CPU-bound and brief; it is
// not interrupted mid-way.)
func (db *Database) DefineViewContext(ctx context.Context, xquery string) (*View, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("vxml: define view interrupted: %w", err)
	}
	v, err := db.engine.CompileView(xquery)
	if err != nil {
		return nil, err
	}
	return &View{inner: v}, nil
}

// Options configure a search. The zero value means conjunctive semantics
// and all matching results. Out-of-range numeric fields are normalized,
// never rejected: negative TopK and Offset mean 0, negative Parallelism
// means 1 (a pool of one, matching the engine's reading) — so no
// Options value can construct an invalid pool size or a spurious extra
// cache key.
type Options struct {
	// TopK limits the number of returned results (0 = all matches).
	TopK int
	// Offset skips that many leading ranked results before TopK applies,
	// for pagination: page p is Offset p*TopK. Rank numbers keep their
	// absolute position in the full ranking, so concatenated pages are
	// byte-identical to one unpaged (TopK = 0) search. Uncached, a page
	// costs a top-(Offset+TopK) ranking and materializes only the
	// window — the skipped prefix is never fetched from base data. With
	// Cache set, a page with Offset > 0 computes and
	// caches the full ranking under the unpaged TopK=0 key instead, so
	// every later page of the same query (and any unpaged TopK=0 search
	// of it) is sliced from that one shared entry; the first page
	// (Offset 0) is an ordinary top-k search with its own entry.
	Offset int
	// Disjunctive matches any keyword instead of all keywords.
	Disjunctive bool
	// Parallelism bounds the worker pool the Efficient pipeline fans
	// per-document PDT generation, view evaluation and scoring out over.
	// 0 (the default) uses GOMAXPROCS; 1 is a pool of one. Results are
	// byte-identical at every setting, so Parallelism is
	// deliberately NOT part of the query-result cache key: searches at
	// different parallelism share cache entries. The comparator pipelines
	// (Baseline, GTPTermJoin) always run sequentially.
	Parallelism int
	// Approach selects the pipeline; the default is Efficient. The
	// comparators exist for benchmarking and produce identical results.
	Approach Approach
	// Cache serves the search from the query-result cache when an entry
	// for the same (view, keywords, options) exists at the current
	// document generation, and populates the cache otherwise. Keyword
	// order and casing do not affect the cache identity: permutations of
	// one keyword set share an entry, and TF maps are re-expressed in each
	// caller's keyword forms. Cached and uncached paths return identical
	// results; a hit reports Stats.PlanSource "cache_hit" and the timings
	// of the original computation.
	//
	// Cache also opts the search into the catalog planner (Efficient
	// pipeline only): on an exact-entry miss the query may still be
	// answered by rewriting — a TopK window sliced from a cached unranked
	// entry, or a re-scored view skeleton — byte-identically to direct
	// evaluation.
	// Stats.PlanSource reports which path answered.
	Cache bool
}

// Approach selects the query processing pipeline.
type Approach int

// Available pipelines (paper §5.1).
const (
	// Efficient is the paper's contribution: index-only PDT generation
	// with deferred materialization.
	Efficient Approach = iota
	// Baseline materializes the entire view at query time.
	Baseline
	// GTPTermJoin uses structural joins with TermJoin (Timber-style).
	GTPTermJoin
)

// Result is one ranked search result. Its JSON encoding is the /v1 wire
// shape of a result: one element of a search response's results array, or
// one line of a search stream.
type Result struct {
	Rank  int     `json:"rank"`
	Score float64 `json:"score"`
	// TF maps each query keyword to its frequency in the result.
	TF map[string]int `json:"tf"`
	// XML is the fully materialized result element.
	XML string `json:"xml"`
	// Snippet is a keyword-in-context excerpt from the result.
	Snippet string `json:"snippet"`
}

// Stats reports the per-phase cost of a search (paper Figure 14), its size
// counters and how it was served; its JSON encoding is the stats object of
// a /v1 search response. See core.Stats for the fields.
type Stats = core.Stats

// NodeStatus is one cluster member's outcome within a distributed search
// (see Stats.Nodes).
type NodeStatus = core.NodeStatus

// Search evaluates a ranked keyword query over the view. Keywords are
// case-insensitive; more than 64 fail with ErrInvalidOptions. A nil opts means conjunctive semantics, all results,
// Efficient pipeline, no caching. Search never cancels; use SearchContext
// for deadlines and cancellation, or Results for incremental delivery.
func (db *Database) Search(v *View, keywords []string, opts *Options) ([]Result, *Stats, error) {
	return db.SearchContext(context.Background(), v, keywords, opts)
}

// SearchContext is Search with cooperative cancellation: ctx is checked
// between work units in every phase (candidate documents, FLWOR bindings,
// scored results, materialized winners), so a cancel or deadline returns a
// wrapped ctx.Err() — classify with errors.Is(err, context.Canceled) or
// context.DeadlineExceeded — within one unit, with all shard read locks
// released and no pool goroutine left behind. A canceled search inserts
// nothing into the query-result cache — and a warm cache never masks a
// cancellation: the pre-flight runs before the cache lookup, so a dead ctx
// fails identically whether the entry is resident or not. The serving
// protocol around the pipeline (paging, cache tiers, insert discipline) is
// PlannedSearch; this method supplies the local engine as its RunFunc.
func (db *Database) SearchContext(ctx context.Context, v *View, keywords []string, opts *Options) ([]Result, *Stats, error) {
	return PlannedSearch(ctx, db.catalog, v.inner.Text, keywords, opts,
		func(ctx context.Context, opts *Options, pageOffset int) ([]Result, *Stats, error) {
			return db.searchUncached(ctx, v, keywords, opts, pageOffset)
		})
}

// searchUncached runs the full pipeline; the engine takes its own read
// lock. pageOffset > 0 returns only the ranked winners from that position
// on (ranks stay absolute): the Efficient engine skips the prefix before
// materializing it, while the comparators — which materialize as part of
// their cost model — slice afterwards.
func (db *Database) searchUncached(ctx context.Context, v *View, keywords []string, opts *Options, pageOffset int) ([]Result, *Stats, error) {
	copts := engineOptions(opts)
	var (
		results []core.Result
		stats   *Stats
		err     error
	)
	switch opts.Approach {
	case Efficient:
		results, stats, err = db.engine.SearchPage(ctx, v.inner, keywords, copts, pageOffset)
		pageOffset = 0 // the engine already skipped the prefix
	case Baseline:
		var bs *baseline.Stats
		if results, bs, err = baseline.SearchContext(ctx, db.engine, v.inner, keywords, copts); err == nil {
			stats = &bs.Stats
		}
	case GTPTermJoin:
		var gs *gtp.Stats
		if results, gs, err = gtp.SearchContext(ctx, db.engine, v.inner, keywords, copts); err == nil {
			stats = &gs.Stats
		}
	default:
		return nil, nil, fmt.Errorf("%w: unknown approach %d", ErrInvalidOptions, opts.Approach)
	}
	if err != nil {
		return nil, nil, err
	}
	out := make([]Result, len(results))
	for i, r := range results {
		out[i] = toResult(r, keywords)
	}
	if pageOffset > 0 {
		out = pageSlice(out, pageOffset, 0)
	}
	return out, stats, nil
}

// engineOptions translates normalized options into the engine's. Cache
// opts the search into the engine's planner tiers too; the comparator
// pipelines ignore Plan and always evaluate directly.
func engineOptions(opts *Options) core.Options {
	return core.Options{K: opts.TopK, Disjunctive: opts.Disjunctive, Parallelism: opts.Parallelism, Plan: opts.Cache}
}

// toResult converts one engine result into the caller-facing form.
func toResult(r core.Result, keywords []string) Result {
	return Result{Rank: r.Rank, Score: r.Score, TF: core.TFMap(keywords, r.TFs), XML: r.Element.XMLString(""), Snippet: r.Snippet}
}

// Explain renders the query plan for a keyword search over the view: the
// QPTs derived from the view definition and the exact index probes PDT
// generation will issue. Nothing is evaluated.
func (db *Database) Explain(v *View, keywords []string) string {
	return db.engine.Explain(v.inner, keywords)
}

// ExplainContext is Explain with a cancellation pre-flight: plan rendering
// is brief, so one ctx check before taking the read locks is the whole
// cooperation, returning a wrapped ctx.Err() when it fails. Keywords a
// search would reject (more than 64) fail with ErrInvalidOptions.
func (db *Database) ExplainContext(ctx context.Context, v *View, keywords []string) (string, error) {
	return db.engine.ExplainContext(ctx, v.inner, keywords)
}

// Query runs a complete Figure-2 style keyword query: a let-bound view
// followed by `for $r in $view where $r ftcontains('k1' & 'k2') return $r`.
// Query never cancels; use QueryContext for deadlines and cancellation.
func (db *Database) Query(fullQuery string, opts *Options) ([]Result, *Stats, error) {
	return db.QueryContext(context.Background(), fullQuery, opts)
}

// QueryContext is Query with cooperative cancellation, propagated through
// the inner search exactly as in SearchContext; the returned error wraps
// ctx.Err(), and a canceled query inserts nothing into the cache. The
// query's own text is the view's definition and its ftcontains clause
// supplies the keywords and the semantics; every other option is the
// caller's, so a cached Query is an ordinary SearchContext entry of that
// view, paged the same way.
func (db *Database) QueryContext(ctx context.Context, fullQuery string, opts *Options) ([]Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("vxml: query interrupted: %w", err)
	}
	parsed, err := xq.Parse(fullQuery)
	if err != nil {
		return nil, nil, err
	}
	kq, err := core.SplitKeywordQuery(parsed)
	if err != nil {
		return nil, nil, err
	}
	v, err := core.CompileParsed(fullQuery, kq.ViewExpr, kq.Funcs)
	if err != nil {
		return nil, nil, err
	}
	if err := v.CheckRefs(db.engine.HasDocument); err != nil {
		return nil, nil, err
	}
	effective := *normalizeOptions(opts)
	effective.Disjunctive = !kq.Conjunctive
	return db.SearchContext(ctx, &View{inner: v}, kq.Keywords, &effective)
}
