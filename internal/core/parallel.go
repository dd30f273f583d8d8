package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vxml/internal/docname"
	"vxml/internal/invindex"
	"vxml/internal/pdt"
	"vxml/internal/scoring"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// forEach runs fn(0..n-1) on a pool of at most `workers` goroutines
// (inline when the pool would be pointless). Workers pull indices from an
// atomic counter, so uneven per-item cost still balances. Cancellation is
// cooperative: every worker checks ctx before pulling its next item, so a
// cancel stops the pool within one item per worker; forEach always waits
// for the in-flight items to finish (no goroutine outlives the call) and
// returns the wrapped ctx error if the loop was cut short.
func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	return forEachWorker(ctx, workers, n, func(int) func(int) { return fn })
}

// forEachWorker is forEach for work that needs per-worker state (e.g. a
// single-threaded evaluator): newWorker runs once per pool goroutine, with
// the worker's number (0 to min(workers, n)-1), and returns that worker's
// item function.
func forEachWorker(ctx context.Context, workers, n int, newWorker func(worker int) func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		fn := newWorker(0)
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker(w)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctxErr(ctx)
}

// chunkBounds splits n items into at most `chunks` contiguous [lo, hi)
// ranges. Chunk boundaries never affect results — outputs are concatenated
// back in index order — only load balance.
func chunkBounds(n, chunks int) [][2]int {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]int, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// evalView runs the view expression over the PDT catalog — the one
// evaluator every whole-view search uses, at every pool size. A top-level
// FLWOR that opens with a for clause is partitioned over that clause's
// binding sequence: the bindings are split into contiguous chunks and each
// worker evaluates the remaining clauses for its chunks with its own
// evaluator over the shared immutable catalog. FLWOR evaluates bindings
// independently, so concatenating the chunk outputs in order is exactly
// the whole-expression result (xqeval.OuterBindings). Any other view (no
// top-level FLWOR, or one that opens with a let) is evaluated whole by a
// single evaluator. Every evaluator carries ctx, so cancellation unwinds
// between FLWOR bindings either way.
func evalView(ctx context.Context, v *View, catalog xqeval.Catalog, workers int) (results []*xmltree.Node, err error) {
	newEval := func() *xqeval.Evaluator {
		ev := xqeval.New(catalog, v.Funcs)
		ev.SetContext(ctx)
		return ev
	}
	primary := newEval()
	fl, _ := v.Expr.(*xq.FLWORExpr)
	var bindings []xqeval.Item
	partitionable := false
	if fl != nil {
		if bindings, partitionable, err = primary.OuterBindings(fl); err != nil {
			return nil, &evalError{err}
		}
	}
	if !partitionable {
		items, err := primary.Eval(v.Expr, nil)
		if err != nil {
			return nil, &evalError{err}
		}
		return appendNodes(nil, items), nil
	}
	// More chunks than workers lets fast workers steal from slow ones;
	// outputs are stitched back in chunk order so the partition is
	// invisible in the result.
	chunks := chunkBounds(len(bindings), workers*4)
	outs := make([][]*xmltree.Node, len(chunks))
	errs := make([]error, len(chunks))
	poolErr := forEachWorker(ctx, workers, len(chunks), func(int) func(int) {
		ev := newEval() // evaluators are single-threaded; one per worker
		return func(c int) {
			for bi := chunks[c][0]; bi < chunks[c][1]; bi++ {
				// Tails without a for clause of their own never reach the
				// evaluator's ctx checks; check between outer bindings too.
				if errs[c] = ctx.Err(); errs[c] != nil {
					return
				}
				items, err := ev.EvalTail(fl, bindings[bi])
				if err != nil {
					errs[c] = err
					return
				}
				outs[c] = appendNodes(outs[c], items)
			}
		}
	})
	if poolErr != nil {
		return nil, poolErr
	}
	total := 0
	for c := range chunks {
		if errs[c] != nil {
			return nil, &evalError{errs[c]}
		}
		total += len(outs[c])
	}
	results = make([]*xmltree.Node, 0, total)
	for _, out := range outs {
		results = append(results, out...)
	}
	return results, nil
}

// evalError marks an evaluation failure so Search can report its phase. It
// unwraps, so a context error surfacing through the evaluator still
// matches errors.Is(err, context.Canceled).
type evalError struct{ err error }

func (e *evalError) Error() string { return "core: evaluating view over PDTs: " + e.err.Error() }
func (e *evalError) Unwrap() error { return e.err }

// collectChunk is the number of results one collect work unit covers. It
// is fixed rather than derived from the pool size so that ctx is checked
// every collectChunk results even at a pool of one.
const collectChunk = 64

// collect is the stat-collection phase: the per-result scoring inputs (term
// frequencies and byte length), index-aligned with o.results. The
// per-document pipeline brings its own; for the other PDT-pruned results — fresh from whole-view evaluation or a stored
// skeleton alike — one pooled loop derives them (addResultStats). It runs
// lock-free.
func (o *viewOutput) collect(ctx context.Context) ([]scoring.Stats, error) {
	if o.rstats != nil {
		return o.rstats, nil
	}
	rstats := make([]scoring.Stats, len(o.results))
	chunks := chunkBounds(len(o.results), (len(o.results)+collectChunk-1)/collectChunk)
	listsOf := func(doc int32) []*invindex.PostingList { return o.lists[doc] }
	err := forEach(ctx, o.stats.Workers, len(chunks), func(c int) {
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			rstats[i] = scoring.Stats{TFs: make([]int, len(o.kws))}
			addResultStats(&rstats[i], o.results[i], listsOf)
		}
	})
	if err != nil {
		return nil, err
	}
	o.rstats = rstats
	return rstats, nil
}

// addResultStats adds one PDT-pruned view result's scoring inputs to st,
// mirroring scoring.Collect(FromPDT)'s walk: each Meta node contributes its
// whole base subtree exactly once, constructed wrappers contribute nothing.
// Engine PDTs carry no Meta.TFs (and a skeleton outlives the keywords of
// the search that built it), so each term frequency is the posting list's
// Dewey-range sum over the Meta node's base subtree — by construction the
// value PDT generation attaches when given keywords (the pdt property suite
// pins Meta.TFs == SubtreeTF over the base subtree; Theorem 4.1(b)).
// listsOf returns a document's posting list per keyword. Only the 'c'
// nodes that reach a view result pay for it, each exactly once (selection
// views visit every Meta node once per search, so there is nothing for a
// memo to save; the range sums themselves are kept cheap).
func addResultStats(st *scoring.Stats, n *xmltree.Node, listsOf func(doc int32) []*invindex.PostingList) {
	if n.Meta == nil {
		for _, c := range n.Children {
			addResultStats(st, c, listsOf)
		}
		return
	}
	st.ByteLen += n.ByteLen
	if len(n.ID) > 0 {
		for j, pl := range listsOf(n.ID[0]) {
			st.TFs[j] += pl.SubtreeTF(n.ID)
		}
	}
}

// docOutput is what one per-document work unit produced: its results in
// view order, a nil slot for each its caller does not read (keep), their
// scoring inputs, its PDT's size, and the time spent generating the PDT and
// evaluating plus collecting. stats holds k+1 ints per result, k the
// keyword count: its term frequencies, then its byte length.
type docOutput struct {
	results      []*xmltree.Node
	stats        []int
	nodes, bytes int
	gen, eval    time.Duration
	err          error
}

// keep is which of a per-document unit's results its caller reads once the
// pass is over, and so which the unit detaches from its worker's memory
// (docWorker.evaluate); every other result becomes a nil slot. Each entry
// point picks its own: a direct evaluation that records the view's
// skeleton, and MaterializeAt, keep every result; a local ranking keeps the
// results that satisfy the keyword semantics, the only ones it can rank;
// ClusterRank, which reads stats and owners alone, keeps none.
type keep uint8

const (
	keepAll keep = iota
	keepMatching
	keepNone
)

// keeps reports whether a result with term frequencies tfs is kept under
// the keyword semantics conjunctive.
func (k keep) keeps(tfs []int, conjunctive bool) bool {
	switch k {
	case keepAll:
		return true
	case keepMatching:
		return scoring.Satisfies(tfs, conjunctive)
	}
	return false
}

// docWorker is one pool goroutine's state for per-document output: the
// arena its units' PDTs are generated into, an evaluator over a unit
// catalog it re-points per unit, the unit's posting list per keyword, the
// side documents' lists, shared by every worker, and detach's scratch.
type docWorker struct {
	arena     *pdt.Arena
	empty     xmltree.Document // the unit document of an empty PDT
	ev        *xqeval.Evaluator
	cat       unitCatalog
	doc       int32
	lists     []*invindex.PostingList
	sideLists map[int32][]*invindex.PostingList
	// nodes and kids are detach's slabs for the unit's copies.
	nodes []xmltree.Node
	kids  []*xmltree.Node
}

// listsOf returns a document's posting list per keyword: a result's Meta
// nodes come from the unit's document or from a side document.
func (w *docWorker) listsOf(doc int32) []*invindex.PostingList {
	if doc == w.doc {
		return w.lists
	}
	return w.sideLists[doc]
}

// unitCatalog is the evaluation catalog of one per-document work unit: the
// unit's PDT document plus the side documents every unit shares read-only.
// No side reference matches an outer document (lockAndPlan), so a pattern
// matching the unit's document is the outer one and matches nothing else.
type unitCatalog struct {
	docs  [1]*xmltree.Document
	sides *evalCatalog
}

func (c *unitCatalog) Doc(name string) *xmltree.Document {
	if c.docs[0].Name == name {
		return c.docs[0]
	}
	return c.sides.Doc(name)
}

func (c *unitCatalog) DocsMatching(pattern string) []*xmltree.Document {
	if docname.Match(pattern, c.docs[0].Name) {
		return c.docs[:]
	}
	return c.sides.DocsMatching(pattern)
}

// run is one per-document work unit: PDT generation into the worker's
// arena, then evaluate. An empty PDT is evaluated as a root-less document
// (unit.document).
func (w *docWorker) run(u unit, v *View, out *viewOutput, d *docOutput) {
	start := time.Now()
	pd := pdt.GenerateInto(w.arena, u.q, u.pix, u.name)
	d.nodes, d.bytes = pd.Nodes, pd.Bytes
	generated := time.Now()
	d.gen = generated.Sub(start)
	d.err = w.evaluate(u, u.document(pd, &w.empty), v, out, d)
	d.eval = time.Since(generated)
}

// evaluate runs the whole view over the unit's PDT and the side documents,
// with the side join indices the worker's evaluator keeps (EvalUnit), looks
// up the unit's keyword lists, collects its results' scoring inputs into
// one slab, and detaches the results out.keep keeps from the memory the
// next unit reuses, leaving a nil slot for every other.
func (w *docWorker) evaluate(u unit, doc *xmltree.Document, v *View, out *viewOutput, d *docOutput) error {
	w.cat.docs[0] = doc
	// The partition rule's Outer is a top-level for clause's.
	var err error
	if d.results, err = w.ev.EvalUnit(v.Expr.(*xq.FLWORExpr), doc); err != nil {
		return err
	}
	if len(d.results) == 0 {
		return nil
	}
	w.doc = u.docID
	w.lists = w.lists[:0]
	for _, kw := range out.kws {
		w.lists = append(w.lists, u.iix.Lookup(kw))
	}
	k := len(out.kws)
	d.stats = make([]int, len(d.results)*(k+1))
	for i, r := range d.results {
		st := statsAt(d.stats, k, i)
		addResultStats(&st, r, w.listsOf)
		d.stats[i*(k+1)+k] = st.ByteLen
		if !out.keep.keeps(st.TFs, out.conjunctive) {
			d.results[i] = nil
		}
	}
	w.detach(d.results)
	return nil
}

// statsAt is result i's scoring inputs in a unit's stats slab of k+1 ints
// per result: its term frequencies, carved from the slab, and its byte
// length.
func statsAt(slab []int, k, i int) scoring.Stats {
	at := i * (k + 1)
	return scoring.Stats{TFs: slab[at : at+k : at+k], ByteLen: slab[at+k]}
}

// detach makes a unit's kept results (the non-nil slots) independent of
// the memory the worker's next unit reuses — the arena's PDT and the
// evaluator's unit document node — by copying every such node they reach
// into one slab, and the copies' child pointers into a second, each sized
// by a first walk:
//
//   - A Meta node is copied without children: nothing reads below one once
//     its scoring inputs are collected (addResultStats stops there, and
//     scoring.Materialize fetches a node with an ID whole from base data).
//   - Any other PDT node, and the document node, is copied with its
//     children detached.
//   - A constructed node keeps its identity; its children are re-pointed
//     to their copies.
//   - A side document's node is left as it is: its PDT lives as long as
//     the search.
//
// A node reached along two paths is copied once per path, as both walks
// count it. A constructed node reached twice is walked twice, the second
// time over the copies the first made, which are copied again: the second
// walk copies no node the first did not count, so the slabs never grow.
func (w *docWorker) detach(results []*xmltree.Node) {
	nodes, kids := 0, 0
	for _, r := range results {
		if r != nil {
			w.count(r, &nodes, &kids)
		}
	}
	if nodes == 0 {
		return
	}
	w.nodes, w.kids = make([]xmltree.Node, 0, nodes), make([]*xmltree.Node, 0, kids)
	for i, r := range results {
		if r != nil {
			results[i] = w.copyOut(r)
		}
	}
	w.nodes, w.kids = nil, nil
}

// reused reports whether n is memory the worker's next unit overwrites: a
// node of the unit's PDT (its Dewey ID names the unit's document; a side
// document's names its own) or the evaluator's unit document node.
func (w *docWorker) reused(n *xmltree.Node) bool {
	return n == w.ev.UnitNode() || len(n.ID) > 0 && n.ID[0] == w.doc
}

// count adds to nodes and kids the copies and copied child pointers that
// copyOut(n) makes.
func (w *docWorker) count(n *xmltree.Node, nodes, kids *int) {
	switch {
	case w.reused(n):
		*nodes++
		if n.Meta != nil {
			return
		}
		*kids += len(n.Children)
	case len(n.ID) > 0:
		return // a side document's node
	}
	for _, c := range n.Children {
		w.count(c, nodes, kids)
	}
}

// copyOut returns what stands for n once the worker's memory is reused:
// a copy of reused memory, and n itself otherwise, a constructed node's
// children re-pointed.
func (w *docWorker) copyOut(n *xmltree.Node) *xmltree.Node {
	if !w.reused(n) {
		if len(n.ID) == 0 {
			for j, c := range n.Children {
				if cc := w.copyOut(c); cc != c {
					n.Children[j] = cc
				}
			}
		}
		return n
	}
	w.nodes = append(w.nodes, *n)
	c := &w.nodes[len(w.nodes)-1]
	c.Children = nil
	if n.Meta == nil && len(n.Children) > 0 {
		at := len(w.kids)
		w.kids = append(w.kids, n.Children...)
		c.Children = w.kids[at:len(w.kids):len(w.kids)]
		for j, ch := range c.Children {
			c.Children[j] = w.copyOut(ch)
		}
	}
	return c
}

// arenaPool recycles the per-document pass's PDT arenas across searches.
// An arena grown past maxPooledArena nodes is left to the collector, so a
// search over one large document does not keep its slabs resident.
var arenaPool = sync.Pool{New: func() any { return new(pdt.Arena) }}

const maxPooledArena = 1 << 10

// releaseArenas ends a per-document pass's use of its workers' arenas:
// each is cleared — no result points into it any more (detach), and a
// cleared arena keeps no document's index alive — and pooled unless it
// grew too large.
func releaseArenas(arenas []*pdt.Arena) {
	for _, a := range arenas {
		if a == nil {
			continue
		}
		a.Clear()
		if a.Cap() <= maxPooledArena {
			arenaPool.Put(a)
		}
	}
}

// perDocumentOutput is direct view output for a view that runs per
// document (perDocumentReason). The side documents, the candidates of the
// other references, get their PDTs (counted once in stats) and keyword
// lists first, once. Then one pass of work units over the outer candidates
// runs on a pool of stats.Workers, each a docWorker.run over its own PDT
// plus the shared sides. A unit's PDT is scratch: each worker generates
// its units' PDTs into one pooled arena, and the results its caller reads
// (out.keep) are detached from it before the next unit runs; every other
// result is a nil slot, which counts in the view's size but is never
// ranked. The units are in document-ID order, the order whole-view
// evaluation enumerates the collection in, so concatenating their outputs
// reproduces the whole view's results; each result's owner is its unit's
// document, and its scoring inputs are carved from its unit's stats slab.
// The pass's wall time is split between PDTTime and EvalTime in proportion
// to the units' summed generation and evaluation-plus-collection times.
func (p *plan) perDocumentOutput(ctx context.Context, v *View, out *viewOutput) error {
	stats := out.stats
	units, sides := p.split(v.Deps.Outer)
	sideCat, err := generatePDTs(ctx, sides, stats)
	if err != nil {
		return err
	}
	sideLists := keywordLists(sides, out.kws)
	start := time.Now()
	docs := make([]docOutput, len(units))
	arenas := make([]*pdt.Arena, max(1, min(stats.Workers, len(units))))
	err = forEachWorker(ctx, stats.Workers, len(units), func(worker int) func(int) {
		w := &docWorker{arena: arenaPool.Get().(*pdt.Arena), cat: unitCatalog{sides: sideCat}, sideLists: sideLists}
		arenas[worker] = w.arena
		w.ev = xqeval.New(&w.cat, v.Funcs)
		w.ev.SetContext(ctx)
		return func(i int) { w.run(units[i], v, out, &docs[i]) }
	})
	releaseArenas(arenas)
	if err != nil {
		return err
	}
	var gen, eval time.Duration
	total := 0
	for i := range docs {
		d := &docs[i]
		if d.err != nil {
			return &evalError{d.err}
		}
		stats.PDTNodes += d.nodes
		stats.PDTBytes += d.bytes
		gen, eval = gen+d.gen, eval+d.eval
		total += len(d.results)
	}
	k := len(out.kws)
	out.results = make([]*xmltree.Node, 0, total)
	out.rstats = make([]scoring.Stats, 0, total)
	out.owners = make([]int32, 0, total)
	for i := range docs {
		out.results = append(out.results, docs[i].results...)
		for j := range docs[i].results {
			out.rstats = append(out.rstats, statsAt(docs[i].stats, k, j))
			out.owners = append(out.owners, units[i].docID)
		}
	}
	wall, sideTime := time.Since(start), stats.PDTTime
	if busy := gen + eval; busy > 0 {
		stats.PDTTime += time.Duration(float64(wall) * float64(gen) / float64(busy))
	}
	stats.EvalTime = wall - (stats.PDTTime - sideTime)
	return nil
}
