// Package core wires the paper's architecture together (Figure 3): QPT
// generation, index-only PDT generation, evaluation of the unchanged view
// query over the PDTs, and scoring with deferred top-k materialization.
// This is the "Efficient" system of the experimental section.
//
// The engine partitions the corpus into shards (mirroring its
// store.Store): each shard owns the path and inverted-list indices of the
// documents hash-assigned to it, guarded by its own RWMutex, and a search
// locks only the shards its view touches — so an ingest into one shard
// never contends with a search over another. With Options.Parallelism > 1
// the per-document pipeline (keyword lookup, QPT matching, PDT generation,
// evaluation, stat collection) fans out over a bounded worker pool; the
// same functions run at every pool size, so results are byte-identical at
// every setting.
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

// ctxErr reports ctx's cancellation state, wrapped so callers can classify
// the failure with errors.Is(err, context.Canceled) or
// errors.Is(err, context.DeadlineExceeded).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: search interrupted: %w", err)
	}
	return nil
}

// engineShard guards the per-document indices of one corpus shard. The
// shard boundaries coincide with the store's (same name hash, same count),
// so one write lock covers the publication of a document's store entry and
// both its indices.
type engineShard struct {
	mu   sync.RWMutex
	path map[string]*pathindex.Index
	inv  map[string]*invindex.Index
	// retiredProbes and retiredLookups hold the counters of indices this
	// shard has dropped (replaced or deleted documents), so IndexProbes
	// stays monotonic across mutations, as the disk backend's does.
	retiredProbes, retiredLookups int
}

// Engine owns the document store and the per-document path and
// inverted-list indices, partitioned into shards aligned with the store's.
//
// The engine is safe for concurrent use: Search, Explain and view
// compilation hold read locks on the shards they touch and proceed in
// parallel, while AddXML and AddParsed take one shard's write lock, so a
// search never observes a document whose indices are half-built and an
// ingest stalls only the searches that touch its shard.
type Engine struct {
	Store  store.Corpus
	shards []*engineShard
	// src is non-nil when Store persists per-document indices itself
	// (IndexSource): the shard maps then stay empty, index lookups
	// resolve through the source, and mutations publish document and
	// indices to the backend in one operation.
	src IndexSource
	// Catalog is the view catalog the planner consults (always non-nil
	// for engines built with New). Its generation is bumped inside every
	// mutation's shard write lock, so a planned search — which checks
	// artifact liveness under its shard read locks — can never mix
	// artifact state from before a mutation with corpus state from after.
	// Layers above (the Database, the HTTP server) share this same
	// catalog for their exact result-cache tier.
	Catalog *catalog.Catalog
	// promoteMu single-flights view materialization (see maybePromote).
	promoteMu sync.Mutex
}

// IndexSource is the optional seam a storage backend implements when it
// persists per-document indices alongside the documents (the disk backend
// does). When a Corpus passed to New satisfies it, the engine skips the
// eager whole-corpus index rebuild — startup cost becomes proportional to
// the manifest, not the corpus — and resolves each document's indices
// through StoredIndices on first use. Mutations flow through
// RegisterIndexed/ReplaceIndexed so the backend persists a document and
// its freshly built indices as one atomic publication; Delete remains a
// Corpus operation (the backend drops its own index state).
//
// StoredIndices must be safe for concurrent use under the engine's shard
// read locks; the engine calls the mutating methods only under the home
// shard's write lock, mirroring the heap backend's publication discipline.
type IndexSource interface {
	StoredIndices(name string) (*pathindex.Index, *invindex.Index, error)
	RegisterIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error
	ReplaceIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error
	// IndexProbes mirrors Engine.IndexProbes for source-resident indices.
	IndexProbes() (pathProbes, keywordLookups int)
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

// indices resolves the named document's path and inverted index — through
// the index source when the backend stores them itself, else from the home
// shard's maps (nil for an unknown name). The caller must hold a read lock
// on the home shard: the maps are written only under shard write locks, so
// any read lock makes the plain map read safe.
func (e *Engine) indices(name string) (*pathindex.Index, *invindex.Index, error) {
	if e.src != nil {
		return e.src.StoredIndices(name)
	}
	sh := e.shards[e.Store.ShardOf(name)]
	return sh.path[name], sh.inv[name], nil
}

// PathIndex returns the path index of the named document, or nil. The
// caller must hold the engine's read lock (RLock, or the shard locks a
// running Search holds).
func (e *Engine) PathIndex(name string) *pathindex.Index {
	pix, _, _ := e.indices(name) // a failed lookup has no index: nil
	return pix
}

// InvIndex returns the inverted index of the named document, or nil. The
// same locking requirement as PathIndex applies.
func (e *Engine) InvIndex(name string) *invindex.Index {
	_, iix, _ := e.indices(name) // a failed lookup has no index: nil
	return iix
}

// IndexProbes sums the served index-probe counters across the whole
// corpus: path-index B+-tree probes and inverted-list keyword lookups.
// Benchmarks report deltas of these to show that the number of probes per
// query depends on the query, never on the data size (paper Figure 7).
func (e *Engine) IndexProbes() (pathProbes, keywordLookups int) {
	if e.src != nil {
		return e.src.IndexProbes()
	}
	e.RLock()
	defer e.RUnlock()
	for _, sh := range e.shards {
		pathProbes += sh.retiredProbes
		keywordLookups += sh.retiredLookups
		for _, ix := range sh.path {
			pathProbes += ix.Probes()
		}
		for _, ix := range sh.inv {
			keywordLookups += ix.Lookups()
		}
	}
	return pathProbes, keywordLookups
}

// New builds an engine over an existing corpus. A heap corpus is indexed
// eagerly, document by document; a corpus that persists its own indices
// (IndexSource — the disk backend) is not: its stored indices are decoded
// on first use, so opening a large saved corpus costs a manifest read, not
// a rebuild.
func New(st store.Corpus) *Engine {
	e := &Engine{
		Store:   st,
		shards:  make([]*engineShard, st.ShardCount()),
		Catalog: catalog.New(0),
	}
	for i := range e.shards {
		e.shards[i] = &engineShard{path: map[string]*pathindex.Index{}, inv: map[string]*invindex.Index{}}
	}
	if src, ok := st.(IndexSource); ok {
		e.src = src
		return e
	}
	for _, doc := range st.Docs() {
		sh := e.shards[st.ShardOf(doc.Name)]
		sh.path[doc.Name], sh.inv[doc.Name] = buildIndices(doc)
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
	pix, iix := buildIndices(doc)
	sh := e.shards[e.Store.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := e.publishLocked(sh, doc, pix, iix, replace); err != nil {
		if errors.Is(err, store.ErrUnknownName) {
			return fmt.Errorf("core: replace: %w %q", ErrUnknownDocument, name)
		}
		return err
	}
	return nil
}

// publishLocked publishes a parsed document and its freshly built indices
// under the home shard's write lock, which the caller holds: through the
// index source when the backend persists indices itself, else to the heap
// store plus the shard maps. replace swaps out the document registered
// under the same name; otherwise the name must be new.
func (e *Engine) publishLocked(sh *engineShard, doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index, replace bool) error {
	var err error
	switch {
	case e.src != nil && replace:
		err = e.src.ReplaceIndexed(doc, pix, iix)
	case e.src != nil:
		err = e.src.RegisterIndexed(doc, pix, iix)
	case replace:
		err = e.Store.ReplaceParsed(doc)
	default:
		err = e.Store.RegisterParsed(doc)
	}
	if err != nil {
		return err
	}
	if e.src == nil {
		sh.retireLocked(doc.Name)
		sh.path[doc.Name], sh.inv[doc.Name] = pix, iix
	}
	e.bumpCatalogLocked()
	return nil
}

// retireLocked drops the named document's indices from the shard maps,
// folding their served-probe counters into the shard's retired totals.
func (sh *engineShard) retireLocked(name string) {
	if ix := sh.path[name]; ix != nil {
		sh.retiredProbes += ix.Probes()
	}
	if ix := sh.inv[name]; ix != nil {
		sh.retiredLookups += ix.Lookups()
	}
	delete(sh.path, name)
	delete(sh.inv, name)
}

// bumpCatalogLocked invalidates the catalog inside a mutation's shard
// write lock. The ordering matters: a planned search takes the touched
// shards' read locks and then checks artifact generations, so a mutation
// that affects a view's documents is either entirely before the search
// (the search sees the bumped generation and rejects stale artifacts) or
// entirely after it. A bump from a mutation on an unrelated shard can
// interleave with a search's compute, but only costs a conservative
// artifact refusal — never a stale serve.
func (e *Engine) bumpCatalogLocked() { e.Catalog.Invalidate() }

// AddParsed stores and indexes a programmatically built document. Like
// AddXML it finalizes and indexes the document before taking the write
// lock, so only publication excludes searches. It panics on a duplicate
// name (programmatic corpora control their names, matching Store.AddParsed).
func (e *Engine) AddParsed(doc *xmltree.Document) {
	doc.DocID = e.Store.ReserveID()
	doc.Finalize()
	pix, iix := buildIndices(doc)
	sh := e.shards[e.Store.ShardOf(doc.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := e.publishLocked(sh, doc, pix, iix, false); err != nil {
		panic(err)
	}
}

// ReplaceXML parses, indexes and atomically swaps the document registered
// under name: one shard write lock covers unregistering the old document's
// indices and publishing the replacement's store entry and indices, so a
// concurrent search sees entirely the old document or entirely the new one.
// The replacement carries a fresh document ID — it is a new document in
// global document order; only the name is stable — so collection views
// enumerate it at its new position. Replacing an unregistered name returns
// an error wrapping ErrUnknownDocument. Like AddXML, parsing and index
// construction run outside the lock.
func (e *Engine) ReplaceXML(name, xmlText string) error {
	return e.ingest(name, xmlText, 0, true)
}

// Delete unregisters the named document and drops its path and inverted
// indices under the home shard's write lock. Searches planned afterwards
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
	sh.retireLocked(name)
	e.bumpCatalogLocked()
	return nil
}

// buildIndices builds both indices for doc. Ingest paths call it before
// taking the write lock (the document is private until published) and
// assign the results under it; New calls it during single-threaded
// construction.
func buildIndices(doc *xmltree.Document) (*pathindex.Index, *invindex.Index) {
	return pathindex.Build(doc), invindex.Build(doc)
}

// View is a compiled virtual view: the parsed definition plus one QPT per
// referenced document or collection pattern.
type View struct {
	Text  string
	Expr  xq.Expr
	Funcs map[string]*xq.FuncDecl
	QPTs  []*qpt.QPT
}

// CompileView parses a view definition (an XQuery expression without
// ftcontains) and derives its QPTs.
func (e *Engine) CompileView(text string) (*View, error) {
	q, err := xq.Parse(text)
	if err != nil {
		return nil, err
	}
	v, err := e.CompileParsedView(text, q.Body, q.Functions)
	if err != nil {
		return nil, err
	}
	// Register here, not in CompileParsedView: synthetic per-query views
	// (Database.Query compiles the verbatim query text) should not claim
	// registry entries at compile time — planned searches register lazily.
	e.Catalog.Register(text)
	return v, nil
}

// CompileParsedView compiles an already-parsed view expression. QPT
// generation is corpus-independent and runs unlocked; only the
// referenced-document check takes read locks (a long compile must not
// queue behind them and stall a pending ingest, which would in turn stall
// every subsequent search). Collection patterns (fn:collection("part-*"))
// are not checked against the corpus: a pattern may legitimately match
// nothing today and many documents after the next ingest.
func (e *Engine) CompileParsedView(text string, expr xq.Expr, funcs map[string]*xq.FuncDecl) (*View, error) {
	qpts, err := qpt.Generate(expr, funcs)
	if err != nil {
		return nil, err
	}
	for _, q := range qpts {
		if docname.IsPattern(q.Doc) {
			continue
		}
		if _, exists := e.Store.Info(q.Doc); !exists {
			return nil, fmt.Errorf("core: view references %w %q", ErrUnknownDocument, q.Doc)
		}
	}
	return &View{Text: text, Expr: expr, Funcs: funcs, QPTs: qpts}, nil
}

// Options configure a search.
type Options struct {
	// K is the number of results to return (top-K); 0 returns all matches.
	K int
	// Disjunctive switches from conjunctive (all keywords) to disjunctive
	// (any keyword) semantics.
	Disjunctive bool
	// Parallelism bounds the worker pool the Efficient pipeline fans the
	// per-document work (keyword lookup, QPT matching, PDT generation),
	// view evaluation and stat collection out over. 0 (the default) uses
	// GOMAXPROCS; 1 (or any negative value) is a pool of one. The same
	// functions run at every pool size and results are byte-identical at
	// every setting.
	Parallelism int
	// SkipMaterialize leaves the winners pruned (used by benchmarks that
	// measure phases separately).
	SkipMaterialize bool
	// KeywordPruning enables the monotone top-k extension sketched in the
	// paper's conclusion: for selection-shaped views (a view result is a
	// single base element), elements that cannot satisfy the keyword
	// semantics are skipped during PDT generation. The result SET is
	// unchanged; scores are computed with IDF statistics over the matching
	// subset (context-sensitive flavor), so under conjunctive semantics
	// the rank order can differ from the exact TF-IDF order. Ignored for
	// views where it would be unsound (joins, nesting, constructors).
	KeywordPruning bool
	// Plan routes the search through the catalog planner: a live artifact
	// of the view (skeleton or materialized view) serves the query instead
	// of the PDT pipeline, and direct evaluations record artifacts and
	// count toward adaptive materialization. Planned answers are
	// byte-identical to direct evaluation at every option combination;
	// Stats.PlanSource reports which path answered. Ignored (treated as
	// false) when SkipMaterialize or KeywordPruning is set.
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
// counters.
type Stats struct {
	PDTTime  time.Duration // PDT generation (PrepareLists + GeneratePDT)
	EvalTime time.Duration // query evaluation over the PDTs
	PostTime time.Duration // scoring + top-k materialization
	PDTNodes int
	PDTBytes int
	// ViewResults is |V(D)|; Matched counts results satisfying the
	// keyword semantics.
	ViewResults int
	Matched     int
	// KeywordPruned reports whether the selection-view keyword pruning
	// optimization was applied.
	KeywordPruned bool
	// SubtreeFetches counts base-data accesses during materialization.
	SubtreeFetches int
	// Workers is the resolved worker-pool size the search ran with.
	// Candidates counts the documents the view's QPTs
	// resolved to, and ShardsSearched the corpus shards whose read locks
	// the search held. These describe the execution, never the results.
	Workers        int
	Candidates     int
	ShardsSearched int
	// PlanSource reports how the answer was produced (catalog.PlanDirect /
	// PlanRewritten / PlanMaterialized; the Database layer adds
	// PlanCacheHit for exact result-cache hits). PlanView is the catalog
	// ID of the serving view ("" on the direct path). Like the fields
	// above they describe the execution — the results are byte-identical
	// across every plan source.
	PlanSource string
	PlanView   string
	// promotable is set when this search pushed its view over the
	// promotion threshold; the entry points run maybePromote after the
	// shard locks are released.
	promotable bool
}

// Total returns the end-to-end time.
func (s *Stats) Total() time.Duration { return s.PDTTime + s.EvalTime + s.PostTime }

// Result is one ranked, materialized search result.
type Result struct {
	Rank  int
	Score float64
	TFs   []int
	// Element is the materialized result (pruned if SkipMaterialize).
	Element *xmltree.Node
	// Snippet is a keyword-in-context excerpt from the materialized
	// element ("" when SkipMaterialize is set).
	Snippet string
}

// unit is one candidate-document work item of a search: a QPT paired with
// the name and ID of one document it resolved to and that document's
// indices, snapshotted under the shard read locks the search holds.
// Planning is metadata- and index-only — the document tree itself is never
// touched, which is what lets a disk-backed corpus search without paging
// base data in (paper §4.2.2.2: only materialization reads base storage).
type unit struct {
	q     *qpt.QPT
	name  string
	docID int32
	pix   *pathindex.Index
	iix   *invindex.Index
}

// plan is a search's locked view of the corpus: the candidate units in
// deterministic order (QPT order, then document ID order within a QPT)
// and the set of shards whose read locks are held.
type plan struct {
	units  []unit
	shards []*engineShard // locked, in shard order
}

func (p *plan) unlock() {
	for _, sh := range p.shards {
		sh.mu.RUnlock()
	}
}

// lockAndPlan acquires the read locks of every shard the view touches (all
// shards for collection patterns) in shard order, then resolves each QPT to
// its candidate documents. Two QPTs resolving to the same document — a
// literal reference shadowed by an overlapping pattern — would make the
// document's PDT ambiguous and is rejected.
func (e *Engine) lockAndPlan(v *View) (*plan, error) {
	needed := map[int]bool{}
	all := false
	for _, q := range v.QPTs {
		if docname.IsPattern(q.Doc) {
			all = true
			break
		}
		needed[e.Store.ShardOf(q.Doc)] = true
	}
	p := &plan{}
	for i, sh := range e.shards {
		if all || needed[i] {
			sh.mu.RLock()
			p.shards = append(p.shards, sh)
		}
	}
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
					p.unlock()
					return nil, fmt.Errorf("core: document %q matches both %q and %q in one view", info.Name, prev, q.Doc)
				}
				seen[info.Name] = q.Doc
			}
			pix, iix, err := e.indices(info.Name)
			if err != nil {
				p.unlock()
				return nil, fmt.Errorf("core: indices of %q: %w", info.Name, err)
			}
			p.units = append(p.units, unit{q: q, name: info.Name, docID: info.DocID, pix: pix, iix: iix})
		}
	}
	return p, nil
}

// generatePDT runs the per-document index pipeline for one unit: path-index
// probes and QPT (pattern) matching inside PrepareLists, then PDT
// construction. The PDT is keyword-free — its shape, values and byte
// lengths depend on (QPT, document) alone, and collect derives the term
// frequencies of the results that survive evaluation — so the keywords
// reach PrepareLists only when a KeywordFilter prunes by them.
func (u unit) generatePDT(kws []string, filter *pdt.KeywordFilter) *pdt.PDT {
	if u.pix == nil || u.iix == nil {
		return nil // unindexed document: empty PDT
	}
	if filter == nil {
		kws = nil
	}
	lists := pdt.PrepareLists(u.q, u.pix, u.iix, kws)
	return pdt.GenerateFiltered(u.q, lists, u.name, filter)
}

// keywordLists resolves every candidate document's posting list for each
// keyword, keyed by document ID (Meta payloads name their source document
// through the leading Dewey component): one inverted-list lookup per
// keyword per candidate, under the plan's shard read locks. The lists are
// immutable, so collect reads them after the locks drop. Lookup on an
// absent keyword returns an empty list whose range sums are 0, so no nil
// checks are needed per keyword; a candidate without indices has no entry.
func (p *plan) keywordLists(kws []string) map[int32][]*invindex.PostingList {
	lists := make(map[int32][]*invindex.PostingList, len(p.units))
	slab := make([]*invindex.PostingList, 0, len(p.units)*len(kws))
	for _, u := range p.units {
		if u.iix == nil {
			continue
		}
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

// generatePDTs is the PDT-generation half of direct view output: one PDT per
// candidate unit on a pool of stats.Workers, the node and byte tally and
// PDTTime recorded in stats, and the PDTs assembled into the evaluation
// catalog (a nil PDT or a PDT with no qualifying elements contributes
// nothing, exactly like an unknown document). The caller holds the plan's
// shard read locks.
func (p *plan) generatePDTs(ctx context.Context, kws []string, filter *pdt.KeywordFilter, stats *Stats) (*evalCatalog, error) {
	start := time.Now()
	pdts := make([]*pdt.PDT, len(p.units))
	if err := forEach(ctx, stats.Workers, len(p.units), func(i int) {
		pdts[i] = p.units[i].generatePDT(kws, filter)
	}); err != nil {
		return nil, err
	}
	c := &evalCatalog{byName: map[string]*xmltree.Document{}}
	for _, pd := range pdts {
		if pd == nil {
			continue
		}
		stats.PDTNodes += pd.Nodes
		stats.PDTBytes += pd.Bytes
		if pd.Doc == nil {
			continue
		}
		c.byName[pd.SourceName] = pd.Doc
		c.ordered = append(c.ordered, pd.Doc)
	}
	// Units are ordered QPT-major; pattern expansion must follow corpus
	// (document ID) order across the whole catalog.
	slices.SortFunc(c.ordered, func(a, b *xmltree.Document) int { return cmp.Compare(a.DocID, b.DocID) })
	stats.PDTTime = time.Since(start)
	return c, nil
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
// checked between candidate documents during PDT generation, between FLWOR
// bindings during evaluation, between chunks of results during stat
// collection and between winners during materialization, so a cancel or
// deadline unwinds within one work unit. The returned error wraps ctx.Err()
// (classify with errors.Is); the shard read locks are released before
// SearchPage returns, canceled or not, and no pool goroutine outlives the
// call. Only the ranked winners from offset on are returned: the skipped
// prefix is never materialized (no base-data fetch, no snippet), and Rank
// numbers keep their absolute position in the ranking. Callers paging
// uncached results combine it with Options.K = offset + page size.
func (e *Engine) SearchPage(ctx context.Context, v *View, keywords []string, opts Options, offset int) ([]Result, *Stats, error) {
	// Pin before planning: materialization below runs after the shard read
	// locks are released, and the pin keeps a concurrently replaced or
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
	for r, err := range out.winners(ctx, ranked, offset, opts, fetcher) {
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
	}
	stats := out.closePost()
	stats.SubtreeFetches = fetcher.Fetches
	e.maybePromote(ctx, v, opts, stats)
	return results, stats, nil
}

// viewOutput is what the locked phases of a search (plan, view output)
// hand to the lock-free ones (collect, select, materialise): the view's
// results in view order and everything later phases need to score and
// expand them.
type viewOutput struct {
	// results are the view's results, in view order: PDT-pruned trees from
	// direct evaluation or a skeleton, complete trees from a materialized
	// view.
	results []*xmltree.Node
	// bindings are the outer FLWOR bindings evaluation was partitioned
	// over and counts[i] the number of results bindings[i] produced (their
	// sum is len(results)). Both are nil when the results did not come
	// from a partitioned evaluation — a view that is not partitionable, or
	// a planner tier.
	bindings []xqeval.Item
	counts   []int
	// rstats are the per-result scoring inputs when the serving tier
	// brings them itself (a materialized view); nil for PDT-pruned results
	// — direct or skeleton — whose stats collect derives from lists.
	rstats []scoring.Stats
	// lists holds each candidate document's posting list per keyword
	// (plan.keywordLists), for collect.
	lists map[int32][]*invindex.PostingList
	kws   []string // normalized keywords
	stats *Stats
	// post is when the view's results came into existence — the start of
	// the scoring + materialization time Stats.PostTime reports.
	post time.Time
}

// closePost writes Stats.PostTime — the one place it is written — and
// returns the finished stats. The entry points that report stats call it
// after their last scoring or materialization step.
func (o *viewOutput) closePost() *Stats {
	o.stats.PostTime = time.Since(o.post)
	return o.stats
}

// viewOutput runs the locked phases every search path starts with. Plan:
// lock the touched shards and resolve the candidate documents. View
// output: produce the view's results in view order from the strongest
// source available — a live materialized artifact, a live skeleton (both
// only for planner-eligible options, see tryPlan), else index-only PDT
// generation plus evaluation of the unchanged view over the PDTs, which
// also records the skeleton for the next planned search. Every shard read
// lock is released by return time: the later phases read only the returned
// trees, and Dewey-ID subtree fetches are lock-free.
func (e *Engine) viewOutput(ctx context.Context, v *View, keywords []string, opts Options) (*viewOutput, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := e.lockAndPlan(v)
	if err != nil {
		return nil, err
	}
	defer p.unlock()
	stats := &Stats{Workers: opts.workers(), Candidates: len(p.units), ShardsSearched: len(p.shards), PlanSource: catalog.PlanDirect}
	out := &viewOutput{kws: normalizeKeywords(keywords), stats: stats, post: time.Now()}

	// planGen is read under the shard read locks, so a mutation touching
	// this view's documents cannot land between here and the skeleton
	// store below — a bump from an unrelated shard only makes the store a
	// refused no-op.
	planned := planEligible(opts)
	planGen, served := 0, false
	if planned {
		planGen = e.Catalog.Gen()
		if served, err = e.tryPlan(ctx, v, p, out); err != nil {
			return nil, err
		}
	}
	if !served {
		// QPTs are compile-time; generate the PDTs from the indices alone.
		var filter *pdt.KeywordFilter
		if opts.KeywordPruning && len(out.kws) > 0 {
			if node := selectionFilterNode(v); node != nil {
				filter = &pdt.KeywordFilter{Node: node, Conjunctive: !opts.Disjunctive}
				stats.KeywordPruned = true
			}
		}
		cat, err := p.generatePDTs(ctx, out.kws, filter, stats)
		if err != nil {
			return nil, err
		}
		// The unchanged evaluator runs the view over the PDTs.
		start := time.Now()
		if out.results, out.bindings, out.counts, err = evalView(ctx, v, cat, opts, stats.Workers); err != nil {
			return nil, err
		}
		stats.EvalTime = time.Since(start)
		// Record the skeleton — the eval output itself — for the next
		// search over this view: its nodes never escape to callers (winners
		// are materialized into fresh trees), so sharing them with future
		// serves is safe. AccessDirect counts this search toward promotion;
		// the entry points materialize after the locks drop.
		if planned {
			e.Catalog.StoreSkeleton(v.Text, planGen, out.results, skeletonFootprint(out.results))
			stats.promotable = e.Catalog.AccessDirect(v.Text)
		}
		out.post = time.Now()
	}
	if out.rstats == nil {
		out.lists = p.keywordLists(out.kws)
	}
	stats.ViewResults = len(out.results)
	return out, nil
}

// rankedSearch runs every phase of a local search short of materialization
// — plan, view output, collect, select — and returns the ranked winners
// still pruned, with the view output they came from. No lock is held on
// return, so callers materialize the winners afterwards all at once
// (SearchPage) or one by one as a consumer pulls them (ResultsSeq).
func (e *Engine) rankedSearch(ctx context.Context, v *View, keywords []string, opts Options) ([]scoring.Scored, *viewOutput, error) {
	out, err := e.viewOutput(ctx, v, keywords, opts)
	if err != nil {
		return nil, nil, err
	}
	rstats, err := out.collect(ctx)
	if err != nil {
		return nil, nil, err
	}
	// Select: score every result against the view-wide IDFs and keep the
	// top k. The one call every local path ranks through.
	ranking := scoring.RankWithStats(out.results, rstats, out.kws, !opts.Disjunctive, opts.K)
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
// resolve through the store's lock-free Dewey map. Winners served from a
// materialized view are already complete trees, so a clone replaces the
// base-data fetch (Clone preserves everything XMLString and Snippet read,
// keeping the output byte-identical to a fetched materialization).
func (o *viewOutput) winners(ctx context.Context, ranked []scoring.Scored, offset int, opts Options, fetcher scoring.Fetcher) iter.Seq2[Result, error] {
	// The sequence may outlive the search by a long time (a slow stream
	// consumer): capture what it needs, not o, so the unranked remainder of
	// the view output is collectable meanwhile.
	kws, prebuilt := o.kws, o.stats.PlanSource == catalog.PlanMaterialized
	return func(yield func(Result, error) bool) {
		for i := max(0, offset); i < len(ranked); i++ {
			if err := ctxErr(ctx); err != nil {
				yield(Result{}, err)
				return
			}
			sc := ranked[i]
			r := Result{Rank: i + 1, Score: sc.Score, TFs: sc.Stats.TFs, Element: sc.Result}
			if !opts.SkipMaterialize {
				if prebuilt {
					r.Element = sc.Result.Clone()
				} else {
					r.Element = scoring.Materialize(sc.Result, fetcher)
				}
				r.Snippet = scoring.Snippet(r.Element, kws, snippetWidth)
			}
			if !yield(r, nil) {
				return
			}
		}
	}
}

// selectionFilterNode decides whether a view is selection-shaped — every
// view result is exactly one base element — and if so returns the QPT node
// whose elements are the results. Shapes accepted: a FLWOR whose clauses
// bind paths over a single document and whose return is the (last) loop
// variable, or a bare (filtered) path expression. Exactly one QPT with
// exactly one 'c'-annotated node is required; anything else (joins across
// documents, constructors, nesting) is rejected as non-monotone.
func selectionFilterNode(v *View) *qpt.Node {
	if len(v.QPTs) != 1 {
		return nil
	}
	switch x := v.Expr.(type) {
	case *xq.FLWORExpr:
		rv, ok := x.Return.(*xq.VarExpr)
		if !ok || rv.Name != x.Clauses[len(x.Clauses)-1].Var {
			return nil
		}
	case *xq.StepExpr, *xq.FilterExpr:
		// bare path views return base elements directly
		_ = x
	default:
		return nil
	}
	var cnode *qpt.Node
	for _, n := range v.QPTs[0].Nodes() {
		if n.C {
			if cnode != nil {
				return nil // multiple output nodes: not a selection view
			}
			cnode = n
		}
	}
	return cnode
}

// NormalizeKeyword canonicalizes one query keyword the way every pipeline
// matches it. The definition lives in the catalog package (whose cache
// keys re-express TF maps through it), so keys and matching can never
// drift apart.
func NormalizeKeyword(k string) string { return catalog.NormalizeKeyword(k) }

func normalizeKeywords(keywords []string) []string {
	out := make([]string, len(keywords))
	for i, k := range keywords {
		out[i] = NormalizeKeyword(k)
	}
	return out
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
