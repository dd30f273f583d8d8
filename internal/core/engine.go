// Package core wires the paper's architecture together (Figure 3): QPT
// generation, index-only PDT generation, evaluation of the unchanged view
// query over the PDTs, and scoring with deferred top-k materialization.
// This is the "Efficient" system of the experimental section.
//
// Each document's path and inverted-list indices live in the storage
// layer beside the document (store.Corpus: resident on the heap backend,
// persisted on the disk backend); the engine reads them through one call,
// Corpus.StoredIndices, whichever backend holds them. The engine mirrors
// the corpus's shards with one RWMutex each. A search read-locks only the
// shards its view touches, and only while it plans (lockAndPlan): it
// snapshots its candidates' indices there, and nothing after planning
// reads the live corpus. So an ingest into one shard never contends with a
// search over another, and one into a touched shard waits only for the
// searches still planning. A search's view output is one pass of work
// items — a candidate document's PDT generation and evaluation, a chunk of
// a view's outer bindings, or a chunk of results (a skeleton's, or a
// view's evaluated whole) — each ending in the one collector of its
// results' scoring inputs. With Options.Parallelism > 1
// the pass fans out over a bounded worker pool; the same functions run at
// every pool size, so results are byte-identical at every setting.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"
	"time"

	"vxml/internal/catalog"
	"vxml/internal/docname"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pdt"
	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// ErrUnknownDocument reports a view that references a document name absent
// from the corpus (compare with errors.Is). Collection patterns are exempt:
// they may legitimately match nothing today and many documents later.
var ErrUnknownDocument = errors.New("unknown document")

// ErrInvalidOptions reports search parameters or a view that cannot be
// executed, such as more than MaxKeywords keywords or a document two of a
// view's references match (compare with errors.Is; the root package
// re-exports it).
var ErrInvalidOptions = errors.New("vxml: invalid options")

// ctxErr reports ctx's cancellation state, wrapped so callers can classify
// the failure with errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: search interrupted: %w", err)
	}
	return nil
}

// engineShard orders searches against mutations on one corpus shard. The
// shard boundaries coincide with the store's (same name hash, same count):
// a mutation holds the write lock across its store publication and the
// catalog bump, and a search holds the read lock while it plans, so the
// candidates, their indices and the catalog generation a search plans
// with all belong to one point between mutations.
type engineShard struct {
	mu sync.RWMutex
}

// Engine runs searches over a document store whose documents carry their
// own path and inverted-list indices, with one lock per store shard.
//
// The engine is safe for concurrent use: a search while it plans, Explain
// and view compilation hold read locks on the shards they touch and
// proceed in parallel, while AddXML and AddParsed take one shard's write
// lock, so a search never plans over a document without its indices and
// an ingest stalls only the searches planning over its shard.
type Engine struct {
	Store  store.Corpus
	shards []*engineShard
	// Catalog is the view catalog the planner consults (always non-nil
	// for engines built with New). Its generation is bumped inside every
	// mutation's shard write lock, so a planned search — which checks
	// artifact liveness under its shard read locks — can never mix
	// artifact state from before a mutation with corpus state from after.
	// Layers above (the Database, the HTTP server) share this same
	// catalog for their exact result-cache tier.
	Catalog *catalog.Catalog
}

// RLock takes every shard's read lock, in shard order. Comparator
// pipelines that reach into the indices directly (baseline, gtp) bracket
// their run with RLock/RUnlock so they serialize correctly against AddXML
// regardless of which shards their view touches.
func (e *Engine) RLock() {
	for _, sh := range e.shards {
		sh.mu.RLock()
	}
}

// RUnlock releases the read locks taken by RLock.
func (e *Engine) RUnlock() {
	for _, sh := range e.shards {
		sh.mu.RUnlock()
	}
}

// PathIndex returns the path index of the named document, or nil. The
// caller must hold the engine's read lock (RLock).
func (e *Engine) PathIndex(name string) *pathindex.Index {
	pix, _, _ := e.Store.StoredIndices(name) // a failed lookup has no index: nil
	return pix
}

// InvIndex returns the inverted index of the named document, or nil. The
// same locking requirement as PathIndex applies.
func (e *Engine) InvIndex(name string) *invindex.Index {
	_, iix, _ := e.Store.StoredIndices(name) // a failed lookup has no index: nil
	return iix
}

// IndexProbes sums the served index-probe counters across the whole
// corpus: path-index full-path probes and inverted-list keyword lookups.
// Benchmarks report deltas of these to show that the number of probes per
// query depends on the query, never on the data size (paper Figure 7).
func (e *Engine) IndexProbes() (pathProbes, keywordLookups int) {
	return e.Store.IndexProbes()
}

// New builds an engine over an existing corpus. The corpus already holds
// every document's indices (built at registration on the heap backend,
// persisted on the disk backend), so New does no per-document work.
func New(st store.Corpus) *Engine {
	e := &Engine{
		Store:   st,
		shards:  make([]*engineShard, st.ShardCount()),
		Catalog: catalog.New(),
	}
	for i := range e.shards {
		e.shards[i] = &engineShard{}
	}
	return e
}

// AddXML parses, stores and indexes a document. It takes the home shard's
// write lock, so concurrent searches see either no trace of the document
// or its store entry and both indices together — and searches over other
// shards are not disturbed at all.
func (e *Engine) AddXML(name, xmlText string) error {
	return e.ingest(name, xmlText, 0, false)
}

// ingest is the one mutation routine behind AddXML, AddXMLAt, ReplaceXML
// and ReplaceXMLAt. docID 0 reserves the next local document ID; a positive
// docID is an externally assigned one (see AddXMLAt), which must be unused
// and raises the local sequence past itself. The document is parsed and
// both indices are built before the write lock is taken: it is private
// until published, so only publication needs exclusion and concurrent
// searches stall for microseconds, not for the duration of a large ingest.
func (e *Engine) ingest(name, xmlText string, docID int32, replace bool) error {
	op := "add"
	if replace {
		op = "replace"
	}
	switch _, exists := e.Store.Info(name); {
	case replace && !exists:
		return fmt.Errorf("core: replace: %w %q", ErrUnknownDocument, name)
	case !replace && exists:
		return fmt.Errorf("core: %w: %q", store.ErrDuplicateName, name)
	}
	if docID == 0 {
		docID = e.Store.ReserveID()
	} else {
		if _, inUse := e.Store.InfoByID(docID); inUse {
			return fmt.Errorf("core: %s %q: document ID %d already in use", op, name, docID)
		}
		e.Store.EnsureNextID(docID + 1)
	}
	doc, err := xmltree.ParseString(xmlText, name, docID)
	if err != nil {
		return err
	}
	if err := e.publish(doc, replace); err != nil {
		if errors.Is(err, store.ErrUnknownName) {
			return fmt.Errorf("core: replace: %w %q", ErrUnknownDocument, name)
		}
		return err
	}
	return nil
}

// publish builds doc's indices outside any lock, then takes the home
// shard's write lock and hands document and indices to the store in one
// call, which publishes all three together. replace swaps out the document
// registered under the same name; otherwise the name must be new.
func (e *Engine) publish(doc *xmltree.Document, replace bool) error {
	pix, iix := pathindex.Build(doc), invindex.Build(doc)
	sh := e.shards[e.Store.ShardOf(doc.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var err error
	if replace {
		err = e.Store.ReplaceIndexed(doc, pix, iix)
	} else {
		err = e.Store.RegisterIndexed(doc, pix, iix)
	}
	if err != nil {
		return err
	}
	e.bumpCatalogLocked()
	return nil
}

// bumpCatalogLocked invalidates the catalog inside a mutation's shard
// write lock. The ordering matters: a planned search takes the touched
// shards' read locks and then reads the generation and the view's
// artifact, so a mutation that affects a view's documents is either
// entirely before the search's planning (the bump has already dropped
// stale artifacts) or entirely after it. A bump that lands during a
// search's pass, from any shard, only costs a refused skeleton store —
// never a stale serve.
func (e *Engine) bumpCatalogLocked() { e.Catalog.Invalidate() }

// AddParsed stores and indexes a programmatically built document. Like
// AddXML it finalizes and indexes the document before taking the write
// lock, so only publication excludes searches. It panics on a duplicate
// name (programmatic corpora control their names, matching Store.AddParsed).
func (e *Engine) AddParsed(doc *xmltree.Document) {
	doc.DocID = e.Store.ReserveID()
	doc.Finalize()
	if err := e.publish(doc, false); err != nil {
		panic(err)
	}
}

// ReplaceXML parses, indexes and atomically swaps the document registered
// under name: one store write under the home shard's write lock swaps the
// old document and its indices for the replacement and its indices, so a
// concurrent search sees entirely the old document or entirely the new one.
// The replacement carries a fresh document ID — it is a new document in
// global document order; only the name is stable — so collection views
// enumerate it at its new position. Replacing an unregistered name returns
// an error wrapping ErrUnknownDocument. Like AddXML, parsing and index
// construction run outside the lock.
func (e *Engine) ReplaceXML(name, xmlText string) error {
	return e.ingest(name, xmlText, 0, true)
}

// Delete unregisters the named document, and with it the indices the store
// keeps beside it, under the home shard's write lock. Searches planned afterwards
// cannot see the document; searches already past planning keep materializing
// its subtrees through the store's tombstones (see store.Store.Delete).
// Deleting an unregistered name returns an error wrapping ErrUnknownDocument.
func (e *Engine) Delete(name string) error {
	sh := e.shards[e.Store.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := e.Store.Delete(name); err != nil {
		if errors.Is(err, store.ErrUnknownName) {
			return fmt.Errorf("core: delete: %w %q", ErrUnknownDocument, name)
		}
		return err
	}
	e.bumpCatalogLocked()
	return nil
}

// CompileView compiles a view definition (Compile) and checks that every
// literal document it references is in the corpus (View.CheckRefs).
// Compilation is corpus-independent and runs unlocked; only the existence
// check takes read locks (a long compile must not queue behind them and
// stall a pending ingest, which would in turn stall every subsequent
// search).
func (e *Engine) CompileView(text string) (*View, error) {
	v, err := Compile(text)
	if err != nil {
		return nil, err
	}
	if err := v.CheckRefs(e.HasDocument); err != nil {
		return nil, err
	}
	// Register here, not in Compile: synthetic per-query views
	// (Database.Query compiles the verbatim query text) should not claim
	// registry entries at compile time — planned searches register lazily.
	e.Catalog.Register(text)
	return v, nil
}

// HasDocument reports whether a document is registered under name.
func (e *Engine) HasDocument(name string) bool {
	_, ok := e.Store.Info(name)
	return ok
}

// Options configure a search.
type Options struct {
	// K is the number of results to return (top-K); 0 returns all matches.
	K int
	// Disjunctive switches from conjunctive (all keywords) to disjunctive
	// (any keyword) semantics.
	Disjunctive bool
	// Parallelism bounds the worker pool the Efficient pipeline fans its
	// PDT generation and its pass of work items (evaluation and stat
	// collection) out over. 0 (the default) uses GOMAXPROCS; 1 (or any
	// negative value) is a pool of one. The same functions run at every
	// pool size and results are byte-identical at every setting.
	Parallelism int
	// Plan routes the search through the catalog planner: the view's
	// skeleton serves the query instead of the PDT pipeline, and direct
	// evaluations record the skeleton. Planned answers are
	// byte-identical to direct evaluation at every option combination;
	// Stats.PlanSource reports which path answered. The cluster
	// primitives ignore it (ClusterRank, MaterializeAt).
	Plan bool
}

// workers resolves the Parallelism setting to a pool size.
func (o Options) workers() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(1, o.Parallelism)
}

// Stats reports the per-module cost breakdown of Figure 14 plus size
// counters. It is the one per-search stats shape: vxml.Stats is this type,
// the comparator pipelines embed it, and the /v1 and node RPC wires encode
// it as it is (timings as integer nanoseconds).
type Stats struct {
	// View output runs one pool pass of work items, after a direct
	// search's generation of its side documents' PDTs. PDTTime is that
	// generation plus the pass's wall time split in proportion to the
	// items' summed per-document generation and evaluation-plus-collection
	// times, and EvalTime is the rest of the pass, whatever items it runs:
	// a skeleton serve's collection is EvalTime too.
	PDTTime  time.Duration `json:"pdt_time_ns"`  // PDT generation (PrepareLists + GeneratePDT)
	EvalTime time.Duration `json:"eval_time_ns"` // query evaluation over the PDTs, and collection
	PostTime time.Duration `json:"post_time_ns"` // scoring + top-k materialization
	// Total is the end-to-end time: the sum of the three phases, or the
	// coordinator's wall time for a distributed search.
	Total    time.Duration `json:"total_ns"`
	PDTNodes int           `json:"pdt_nodes"` // elements across all PDTs
	PDTBytes int           `json:"pdt_bytes"` // serialized bytes across all PDTs
	// ViewSize is |V(D)|, the number of view results; Matched counts the
	// results satisfying the keyword semantics.
	ViewSize int `json:"view_size"`
	Matched  int `json:"matched"`
	// BaseData counts base-data subtree fetches (top-k materialization
	// only).
	BaseData int `json:"base_data"`
	// Workers is the resolved worker-pool size the search ran with
	// (comparator pipelines always report 1). Candidates counts the
	// documents the view's QPTs resolved to, and ShardsSearched the corpus
	// shards whose read locks the search held. These describe the
	// execution — on a cache hit, the original one — never the results.
	Workers        int `json:"workers"`
	Candidates     int `json:"candidates"`
	ShardsSearched int `json:"shards_searched"`
	// PlanSource reports how the answer was produced: "direct" (full
	// pipeline, and every comparator run), "cache_hit" (exact result-cache
	// entry; the timing fields then describe the original computation),
	// or "rewritten" (window slice of a cached unranked entry, or a
	// re-scored view skeleton).
	// PlanView is the catalog ID of the serving view ("" when the view is
	// not in the catalog). Like the fields above they describe the
	// execution — results are byte-identical across every plan source.
	PlanSource string `json:"plan_source,omitempty"`
	PlanView   string `json:"plan_view,omitempty"`
	// Nodes reports the per-member outcome of a distributed search (one
	// entry per cluster member the coordinator contacted, in slot order).
	// Single-process searches leave it nil. When a search returns
	// vxml.ErrPartialCluster, the failed members and their errors are here.
	Nodes []NodeStatus `json:"nodes,omitempty"`
}

// Result is one ranked, materialized search result.
type Result struct {
	Rank  int
	Score float64
	TFs   []int
	// Element is the materialized result. It is read-only: it may share
	// nodes with the corpus and other results.
	Element *xmltree.Node
	// Snippet is a keyword-in-context excerpt from Element.
	Snippet string
}

// TFMap keys a result's per-keyword term frequencies by the caller's own
// keyword spellings — the TF field of every vxml.Result, in process and
// through a cluster coordinator alike.
func TFMap(keywords []string, tfs []int) map[string]int {
	tf := map[string]int{}
	for j, k := range keywords {
		if j < len(tfs) {
			tf[k] = tfs[j]
		}
	}
	return tf
}

// unit is one candidate-document work item of a search: a QPT paired with
// the name and ID of one document it resolved to and that document's
// indices, snapshotted while the search plans. The indices are immutable,
// so the pass reads them after the shard locks drop. Planning is
// metadata- and index-only — the document tree itself is never touched,
// which is what lets a disk-backed corpus search without paging base data
// in (paper §4.2.2.2: only materialization reads base storage).
type unit struct {
	q     *qpt.QPT
	name  string
	docID int32
	pix   *pathindex.Index
	iix   *invindex.Index
}

// plan is a search's snapshot of the corpus: the candidate units in
// deterministic order (QPT order, then document ID order within a QPT) and
// how many shards it read-locked to take them. A planned search also
// holds the catalog generation and the view's resident skeleton (nil when
// there is none) with the view's catalog ID, as of the same instant.
type plan struct {
	units          []unit
	shardsSearched int
	gen            int
	skeleton       *catalog.Artifact
	viewID         string
}

// lockAndPlan is the only search step that holds shard locks. It takes
// the read locks of every shard the view touches (all shards for
// collection patterns) in shard order, resolves each QPT to its candidate
// documents and their indices (EachCandidate) and, for a planned search,
// reads the catalog generation and the view's skeleton; it releases the
// locks before it returns.
func (e *Engine) lockAndPlan(v *View, planned bool) (*plan, error) {
	all := slices.ContainsFunc(v.Deps.Refs, docname.IsPattern)
	var locked []*engineShard
	for i, sh := range e.shards {
		if all || slices.ContainsFunc(v.Deps.Refs, func(ref string) bool { return e.Store.ShardOf(ref) == i }) {
			sh.mu.RLock()
			locked = append(locked, sh)
		}
	}
	defer func() {
		for _, sh := range locked {
			sh.mu.RUnlock()
		}
	}()
	p := &plan{shardsSearched: len(locked)}
	if err := e.EachCandidate(v, func(q *qpt.QPT, info store.DocInfo) error {
		pix, iix, err := e.Store.StoredIndices(info.Name)
		if err != nil {
			return fmt.Errorf("core: indices of %q: %w", info.Name, err)
		}
		p.units = append(p.units, unit{q: q, name: info.Name, docID: info.DocID, pix: pix, iix: iix})
		return nil
	}); err != nil {
		return nil, err
	}
	if planned {
		p.gen = e.Catalog.Gen()
		p.skeleton, _, p.viewID = e.Catalog.Artifact(v.Text)
	}
	return p, nil
}

// EachCandidate calls fn with each document each of v's QPTs resolves to,
// in QPT order and document-ID order within one, and returns fn's first
// error. A document two collection patterns of the view both match would
// make its PDT ambiguous, so such a search is refused with an error
// wrapping ErrInvalidOptions — by every pipeline, the comparators
// included. (A literal reference a pattern matches is refused at compile
// time, CompileParsed.) The caller holds the read locks of the shards the
// view touches.
func (e *Engine) EachCandidate(v *View, fn func(q *qpt.QPT, info store.DocInfo) error) error {
	// doc name -> QPT reference that claimed it. One QPT's InfosMatching
	// cannot repeat a document, so only a view with several needs the check.
	var seen map[string]string
	if len(v.QPTs) > 1 {
		seen = map[string]string{}
	}
	for _, q := range v.QPTs {
		for _, info := range e.Store.InfosMatching(q.Doc) {
			if seen != nil {
				if prev, dup := seen[info.Name]; dup {
					return fmt.Errorf("core: %w: document %q matches both %q and %q in one view", ErrInvalidOptions, info.Name, prev, q.Doc)
				}
				seen[info.Name] = q.Doc
			}
			if err := fn(q, info); err != nil {
				return err
			}
		}
	}
	return nil
}

// document is the unit's PDT as evaluation sees it: the PDT's document or,
// when no element qualified, a root-less document under the unit's name and
// ID, written to empty (a new one if nil). Evaluation binds that as a
// childless document node, so a view that binds document nodes yields a
// result for every candidate, as it does over the base documents.
func (u unit) document(pd *pdt.PDT, empty *xmltree.Document) *xmltree.Document {
	if pd.Doc != nil {
		return pd.Doc
	}
	if empty == nil {
		empty = new(xmltree.Document)
	}
	*empty = xmltree.Document{Name: u.name, DocID: u.docID}
	return empty
}

// split parts the plan's units into the outer reference's candidates,
// contiguous since lockAndPlan plans QPT-major, and the side units around
// them (sharing the plan's array when the outer candidates come last).
func (p *plan) split(outer string) (units, sides []unit) {
	lo := max(0, slices.IndexFunc(p.units, func(u unit) bool { return u.q.Doc == outer }))
	hi := lo
	for hi < len(p.units) && p.units[hi].q.Doc == outer {
		hi++
	}
	return p.units[lo:hi], append(p.units[:lo:lo], p.units[hi:]...)
}

// keywordLists resolves each unit's posting list for each keyword, keyed
// by document ID (Meta payloads name their source document through the
// leading Dewey component): one inverted-list lookup per keyword per unit.
// Lookup on an absent keyword returns an empty list whose range sums are
// 0, so no nil checks are needed per keyword.
func keywordLists(units []unit, kws []string) map[int32][]*invindex.PostingList {
	lists := make(map[int32][]*invindex.PostingList, len(units))
	slab := make([]*invindex.PostingList, 0, len(units)*len(kws))
	for _, u := range units {
		start := len(slab)
		for _, kw := range kws {
			slab = append(slab, u.iix.Lookup(kw))
		}
		lists[u.docID] = slab[start:len(slab):len(slab)]
	}
	return lists
}

// evalCatalog resolves fn:doc and fn:collection references against the
// generated PDTs. ordered holds the candidate PDTs in corpus (source
// document ID) order, which DocsMatching preserves — making pattern
// expansion order identical in every pipeline and at every parallelism.
type evalCatalog struct {
	byName  map[string]*xmltree.Document
	ordered []*xmltree.Document
}

func (c *evalCatalog) Doc(name string) *xmltree.Document { return c.byName[name] }

func (c *evalCatalog) DocsMatching(pattern string) []*xmltree.Document {
	var out []*xmltree.Document
	for _, d := range c.ordered {
		if docname.Match(pattern, d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// generatePDTs generates the PDTs of a direct pass's side documents
// (plan.direct), one per unit, on a pool of the pass's workers, each into
// a pooled arena of its own (pdt.GenerateInto), since the side documents
// are all alive together; the arenas join the pass's, released when the
// pass ends, so every result the pass keeps is detached from them first
// (worker.detach). It adds the node and byte tally and the time taken to
// the stats, and assembles the PDTs into the pass's evaluation catalog (a
// PDT with no qualifying elements as a root-less document, see
// unit.document). Each unit runs the per-document index pipeline:
// path-index probes and QPT (pattern) matching, then PDT construction.
// The PDT is keyword-free — its shape, values and byte lengths depend on
// (QPT, document) alone, and the pass's collector derives the term
// frequencies of the results that survive evaluation.
func (p *pass) generatePDTs(units []unit) error {
	stats := p.out.stats
	start := time.Now()
	pdts := make([]*pdt.PDT, len(units))
	p.arenas = make([]*pdt.Arena, len(units))
	if err := forEachWorker(p.ctx, stats.Workers, len(units), func(int) func(int) {
		return func(i int) {
			p.arenas[i] = arenaPool.Get().(*pdt.Arena)
			pdts[i] = pdt.GenerateInto(p.arenas[i], units[i].q, units[i].pix, units[i].name)
		}
	}); err != nil {
		return err
	}
	c := &evalCatalog{
		byName:  make(map[string]*xmltree.Document, len(pdts)),
		ordered: make([]*xmltree.Document, len(pdts)),
	}
	for i, pd := range pdts {
		stats.PDTNodes += pd.Nodes
		stats.PDTBytes += pd.Bytes
		doc := units[i].document(pd, nil)
		c.byName[doc.Name] = doc
		c.ordered[i] = doc
	}
	// Units are ordered QPT-major; pattern expansion must follow corpus
	// (document ID) order across the whole catalog.
	slices.SortFunc(c.ordered, func(a, b *xmltree.Document) int { return cmp.Compare(a.DocID, b.DocID) })
	p.sides = c
	stats.PDTTime += time.Since(start)
	return nil
}

// Search evaluates a ranked keyword query over the virtual view: the
// Efficient pipeline of the paper. Scores and rank order are identical to
// materializing the view and searching it (Theorem 4.1), and identical at
// every Parallelism setting. Search never cancels; use SearchPage for
// deadlines and cancellation.
func (e *Engine) Search(v *View, keywords []string, opts Options) ([]Result, *Stats, error) {
	return e.SearchPage(context.Background(), v, keywords, opts, 0)
}

// SearchPage is Search with cooperative cancellation and paging. ctx is
// checked between candidate documents during PDT generation, between work
// items of the view-output pass, between FLWOR bindings during evaluation
// and between winners during materialization, so a cancel or deadline
// unwinds within one work unit. The returned error wraps ctx.Err()
// (classify with errors.Is); the shard read locks are held only while the
// search plans, and no pool goroutine outlives the call. Only the ranked
// winners from offset on are returned: the skipped prefix is never
// materialized (no base-data fetch, no snippet), and Rank numbers keep
// their absolute position in the ranking. Callers paging uncached results
// combine it with Options.K = offset + page size.
func (e *Engine) SearchPage(ctx context.Context, v *View, keywords []string, opts Options, offset int) ([]Result, *Stats, error) {
	// Pin before planning: everything after planning runs without the
	// shard read locks, and the pin keeps a concurrently replaced or
	// deleted document's subtrees resolvable until this search is done.
	e.Store.Pin()
	defer e.Store.Unpin()
	ranked, out, err := e.rankedSearch(ctx, v, keywords, opts)
	if err != nil {
		return nil, nil, err
	}
	// A per-search counting fetcher keeps the reported fetch count exact
	// even while concurrent searches drive the store's shared counters.
	fetcher := &scoring.CountingFetcher{Fetcher: e.Store}
	results := make([]Result, 0, max(0, len(ranked)-offset))
	for r, err := range out.winners(ctx, ranked, offset, fetcher) {
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
	}
	stats := out.closePost()
	stats.BaseData = fetcher.Fetches
	return results, stats, nil
}

// viewOutput is what the view-output phase hands to the later ones
// (select, materialise): the view's results in view order and everything
// later phases need to score and expand them.
type viewOutput struct {
	// results are the view's results, in view order: PDT-pruned trees from
	// direct evaluation or a skeleton, a nil slot for each the caller does
	// not read (keep). rstats holds each result's scoring inputs, and owners
	// the document it came from (a per-document unit's, or a literal outer
	// document's; nil for a skeleton's and an unpartitionable view's), both
	// index-aligned with results.
	results []*xmltree.Node
	owners  []int32
	rstats  []scoring.Stats
	// keep is which results the pass keeps, deciding a match under
	// conjunctive.
	keep        keep
	conjunctive bool
	kws         []string // normalized keywords
	stats       *Stats
	// post is when the view's results came into existence — the start of
	// the scoring + materialization time Stats.PostTime reports.
	post time.Time
}

// closePost writes Stats.PostTime and Stats.Total — the one place either is
// written — and returns the finished stats. The entry points that report
// stats call it after their last scoring or materialization step.
func (o *viewOutput) closePost() *Stats {
	o.stats.PostTime = time.Since(o.post)
	o.stats.Total = o.stats.PDTTime + o.stats.EvalTime + o.stats.PostTime
	return o.stats
}

// viewOutput runs the phases every search path starts with. Plan: lock
// the touched shards, resolve the candidate documents and, for a planned
// search, find the view's skeleton (lockAndPlan, which releases the locks
// before it returns). View output: produce the view's results in view
// order, with their owners and scoring inputs, in one pass of work items
// (pass): over the skeleton when there is one, else over index-only PDTs
// the pass generates and the unchanged view evaluated over them
// (plan.direct), which also records the skeleton for the next planned
// search, stamped with the generation read while planning. No step after
// planning reads the live corpus: the pass reads the planned indices, and
// Dewey-ID subtree fetches resolve through the pinned store. k is which
// results the caller reads past this point; a planned search keeps them
// all.
func (e *Engine) viewOutput(ctx context.Context, v *View, keywords []string, opts Options, k keep) (*viewOutput, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	kws, err := NormalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	p, err := e.lockAndPlan(v, opts.Plan)
	if err != nil {
		return nil, err
	}
	stats := &Stats{Workers: opts.workers(), Candidates: len(p.units), ShardsSearched: p.shardsSearched, PlanSource: catalog.PlanDirect}
	if opts.Plan {
		k = keepAll
	}
	out := &viewOutput{kws: kws, stats: stats, keep: k, conjunctive: !opts.Disjunctive}
	if p.skeleton != nil {
		stats.PlanSource, stats.PlanView = catalog.PlanRewritten, p.viewID
		start := time.Now()
		err = (&pass{ctx: ctx, out: out, v: v, lists: keywordLists(p.units, kws), results: p.skeleton.Results}).run(start)
	} else {
		err = p.direct(ctx, v, out)
	}
	if err != nil {
		return nil, err
	}
	if opts.Plan {
		// Record the skeleton — the eval output itself — for the next
		// search over this view: its nodes never escape to callers (a
		// winner's wrappers are built anew and its base subtrees come from
		// the store), so sharing them with future serves is safe. A
		// mutation since planning has bumped the generation, and the
		// catalog refuses the store.
		if p.skeleton == nil {
			e.Catalog.StoreSkeleton(v.Text, p.gen, out.results, artifactFootprint(out.results))
		}
		e.Catalog.Access(v.Text, stats.PlanSource)
	}
	out.post = time.Now()
	stats.ViewSize = len(out.results)
	return out, nil
}

// rankedSearch runs every phase of a local search short of materialization
// — plan, view output, select — and returns the ranked winners still
// pruned, with the view output they came from. No lock is held on return,
// so callers materialize the winners afterwards all at once (SearchPage) or
// one by one as a consumer pulls them (ResultsSeq).
func (e *Engine) rankedSearch(ctx context.Context, v *View, keywords []string, opts Options) ([]scoring.Scored, *viewOutput, error) {
	out, err := e.viewOutput(ctx, v, keywords, opts, keepMatching)
	if err != nil {
		return nil, nil, err
	}
	// Select: score every result against the view-wide IDFs and keep the
	// top k. The one call every local path ranks through.
	ranking := scoring.RankWithStats(out.results, out.rstats, out.kws, !opts.Disjunctive, opts.K)
	out.stats.Matched = ranking.Matched
	return ranking.Results, out, nil
}

// snippetWidth is the keyword-in-context excerpt width snippets are cut at.
const snippetWidth = 160

// winners is the materialise phase, the one loop every delivery path
// shares: it expands ranked[offset:] (a negative offset is 0) into
// caller-facing Results, one per pull, so a consumer that stops early never
// pays for the rest; ctx is checked before each winner and a cancellation
// is delivered as the final (zero Result, error) pair. Rank numbers are
// absolute positions in ranked. It needs no shard lock: subtree fetches
// resolve through the store's lock-free Dewey map. A Result's Element is
// read-only and may share nodes with the store and other results.
func (o *viewOutput) winners(ctx context.Context, ranked []scoring.Scored, offset int, fetcher scoring.Fetcher) iter.Seq2[Result, error] {
	// The sequence may outlive the search by a long time (a slow stream
	// consumer): capture what it needs, not o, so the unranked remainder of
	// the view output is collectable meanwhile.
	kws := o.kws
	return func(yield func(Result, error) bool) {
		for i := max(0, offset); i < len(ranked); i++ {
			if err := ctxErr(ctx); err != nil {
				yield(Result{}, err)
				return
			}
			sc := ranked[i]
			r := Result{Rank: i + 1, Score: sc.Score, TFs: sc.Stats.TFs}
			r.Element = scoring.Materialize(sc.Result, fetcher)
			r.Snippet = scoring.Snippet(r.Element, kws, snippetWidth)
			if !yield(r, nil) {
				return
			}
		}
	}
}

// NormalizeKeyword canonicalizes one query keyword the way every pipeline
// matches it. The definition lives in the catalog package (whose cache
// keys re-express TF maps through it), so keys and matching can never
// drift apart.
func NormalizeKeyword(k string) string { return catalog.NormalizeKeyword(k) }

// MaxKeywords bounds the keywords one search may name. Each keyword costs a
// posting list per candidate document and a term frequency per view
// result, so without a bound a request's memory grows with its own length.
const MaxKeywords = 64

// NormalizeKeywords canonicalizes a search's keywords with NormalizeKeyword.
// It is the one place every pipeline (core, baseline, gtp) reads its
// keywords through: more than MaxKeywords fail with an error wrapping
// ErrInvalidOptions.
func NormalizeKeywords(keywords []string) ([]string, error) {
	if len(keywords) > MaxKeywords {
		return nil, fmt.Errorf("%w: %d keywords, at most %d", ErrInvalidOptions, len(keywords), MaxKeywords)
	}
	out := make([]string, len(keywords))
	for i, k := range keywords {
		out[i] = NormalizeKeyword(k)
	}
	return out, nil
}

// appendNodes appends the element items of an evaluation result to dst
// (atomic values are not view results).
func appendNodes(dst []*xmltree.Node, items []xqeval.Item) []*xmltree.Node {
	for _, it := range items {
		if n, ok := it.(*xmltree.Node); ok {
			dst = append(dst, n)
		}
	}
	return dst
}

// KeywordQuery is a Figure-2 style query split into its parts.
type KeywordQuery struct {
	ViewExpr    xq.Expr
	Funcs       map[string]*xq.FuncDecl
	Keywords    []string
	Conjunctive bool
}

// SplitKeywordQuery recognizes the keyword-search-over-view pattern of
// Figure 2 and splits it into the view definition and the keyword query:
//
//	let $view := <view expression>
//	for $r in $view
//	where $r ftcontains('k1' & 'k2')
//	return $r
//
// The variant without the let clause (for $r in (<view>) where ...) is also
// accepted.
func SplitKeywordQuery(q *xq.Query) (*KeywordQuery, error) {
	fl, ok := q.Body.(*xq.FLWORExpr)
	if !ok {
		return nil, fmt.Errorf("core: keyword query must be a FLWOR expression")
	}
	ft, ok := fl.Where.(*xq.FTContainsExpr)
	if !ok {
		return nil, fmt.Errorf("core: keyword query needs an ftcontains where-clause")
	}
	last := fl.Clauses[len(fl.Clauses)-1]
	if last.IsLet {
		return nil, fmt.Errorf("core: the final clause must iterate the view (for $r in $view)")
	}
	tv, ok := ft.Target.(*xq.VarExpr)
	if !ok || tv.Name != last.Var {
		return nil, fmt.Errorf("core: ftcontains must apply to the iteration variable $%s", last.Var)
	}
	rv, ok := fl.Return.(*xq.VarExpr)
	if !ok || rv.Name != last.Var {
		return nil, fmt.Errorf("core: the return clause must return the iteration variable $%s", last.Var)
	}
	viewExpr := last.In
	if v, ok := viewExpr.(*xq.VarExpr); ok {
		// resolve through the preceding let clauses
		resolved := false
		for _, cl := range fl.Clauses[:len(fl.Clauses)-1] {
			if cl.IsLet && cl.Var == v.Name {
				viewExpr = cl.In
				resolved = true
			}
		}
		if !resolved {
			return nil, fmt.Errorf("core: view variable $%s is not bound by a let clause", v.Name)
		}
	}
	return &KeywordQuery{
		ViewExpr:    viewExpr,
		Funcs:       q.Functions,
		Keywords:    ft.Keywords,
		Conjunctive: ft.Conjunctive,
	}, nil
}
