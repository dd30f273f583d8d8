package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vxml/internal/docname"
	"vxml/internal/invindex"
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
	return forEachWorker(ctx, workers, n, func() func(int) { return fn })
}

// forEachWorker is forEach for work that needs per-worker state (e.g. a
// single-threaded evaluator): newWorker runs once per pool goroutine and
// returns that worker's item function.
func forEachWorker(ctx context.Context, workers, n int, newWorker func() func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		fn := newWorker()
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
			fn := newWorker()
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
	poolErr := forEachWorker(ctx, workers, len(chunks), func() func(int) {
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
// view order with their scoring inputs, its PDT's size, and the time spent
// generating the PDT and evaluating plus collecting.
type docOutput struct {
	results      []*xmltree.Node
	rstats       []scoring.Stats
	nodes, bytes int
	gen, eval    time.Duration
	err          error
}

// docWorker is one pool goroutine's state for per-document output: an
// evaluator over a unit catalog it re-points per unit, the unit's posting
// list per keyword and the side documents' lists, shared by every worker.
type docWorker struct {
	ev        *xqeval.Evaluator
	cat       unitCatalog
	doc       int32
	lists     []*invindex.PostingList
	sideLists map[int32][]*invindex.PostingList
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

// run is one per-document work unit: PDT generation, then evaluate. An
// empty PDT is evaluated as a root-less document (unit.document).
func (w *docWorker) run(u unit, v *View, kws []string, d *docOutput) {
	start := time.Now()
	pd := u.generatePDT()
	d.nodes, d.bytes = pd.Nodes, pd.Bytes
	generated := time.Now()
	d.gen = generated.Sub(start)
	d.err = w.evaluate(u, u.document(pd), v, kws, d)
	d.eval = time.Since(generated)
}

// evaluate runs the whole view over the unit's PDT and the side documents,
// with the side join indices the worker's evaluator keeps (EvalUnit), looks
// up the unit's keyword lists and collects its results' scoring inputs,
// with term frequencies carved from one slab.
func (w *docWorker) evaluate(u unit, doc *xmltree.Document, v *View, kws []string, d *docOutput) error {
	prev := w.cat.docs[0]
	w.cat.docs[0] = doc
	// The partition rule's Outer is a top-level for clause's.
	var err error
	if d.results, err = w.ev.EvalUnit(v.Expr.(*xq.FLWORExpr), prev); err != nil {
		return err
	}
	if len(d.results) == 0 {
		return nil
	}
	w.doc = u.docID
	w.lists = w.lists[:0]
	for _, kw := range kws {
		w.lists = append(w.lists, u.iix.Lookup(kw))
	}
	k := len(kws)
	d.rstats = make([]scoring.Stats, len(d.results))
	tfs := make([]int, len(d.results)*k)
	for i, r := range d.results {
		d.rstats[i].TFs = tfs[i*k : (i+1)*k : (i+1)*k]
		addResultStats(&d.rstats[i], r, w.listsOf)
	}
	return nil
}

// perDocumentOutput is direct view output for a view that runs per
// document (perDocumentReason). The side documents, the candidates of the
// other references, get their PDTs (counted once in stats) and keyword
// lists first, once. Then one pass of work units over the outer candidates
// runs on a pool of stats.Workers, each a docWorker.run over its own PDT
// plus the shared sides. The units are in document-ID order, the order
// whole-view evaluation enumerates the collection in, so concatenating
// their outputs reproduces the whole view's results; each result's owner
// is its unit's document. The pass's wall time is split between PDTTime
// and EvalTime in proportion to the units' summed generation and
// evaluation-plus-collection times.
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
	if err := forEachWorker(ctx, stats.Workers, len(units), func() func(int) {
		w := &docWorker{cat: unitCatalog{sides: sideCat}, sideLists: sideLists}
		w.ev = xqeval.New(&w.cat, v.Funcs)
		w.ev.SetContext(ctx)
		return func(i int) { w.run(units[i], v, out.kws, &docs[i]) }
	}); err != nil {
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
	out.results = make([]*xmltree.Node, 0, total)
	out.rstats = make([]scoring.Stats, 0, total)
	out.owners = make([]int32, 0, total)
	for i := range docs {
		out.results = append(out.results, docs[i].results...)
		out.rstats = append(out.rstats, docs[i].rstats...)
		for range docs[i].results {
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
