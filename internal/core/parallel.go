package core

import (
	"context"
	"slices"
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

// forEachWorker runs each worker's item function over 0..n-1 on a pool of
// at most `workers` goroutines (inline when the pool would be pointless):
// newWorker runs once per pool goroutine, with the worker's number (0 to
// min(workers, n)-1), and returns that worker's item function, over its
// own state (e.g. a single-threaded evaluator). Workers pull indices from
// an atomic counter, so uneven per-item cost still balances. Cancellation
// is cooperative: every worker checks ctx before pulling its next item, so
// a cancel stops the pool within one item per worker; forEachWorker always
// waits for the in-flight items to finish (no goroutine outlives the call)
// and returns the wrapped ctx error if the loop was cut short.
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

// evalError marks an evaluation failure so Search can report its phase. It
// unwraps, so a context error surfacing through the evaluator still
// matches errors.Is(err, context.Canceled).
type evalError struct{ err error }

func (e *evalError) Error() string { return "core: evaluating view over PDTs: " + e.err.Error() }
func (e *evalError) Unwrap() error { return e.err }

// resultChunk is the number of results one result chunk covers. It is
// fixed rather than derived from the pool size so that ctx is checked
// every resultChunk results even at a pool of one.
const resultChunk = 64

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

// itemOutput is what one work item produced: its results in view order, a
// nil slot for each its caller does not read (keep), their scoring inputs
// (stats: k+1 ints per result, k the keyword count — its term frequencies,
// then its byte length), its PDT's size and its busy times.
type itemOutput struct {
	results      []*xmltree.Node
	stats        []int
	nodes, bytes int
	gen, eval    time.Duration
	err          error
}

// keep is which of a work item's results its caller reads once the pass is
// over, and so which the item keeps (and a unit detaches from its worker's
// memory, worker.collect); every other result becomes a nil slot. Each entry
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

// worker is one pool goroutine's state in a pass: for units, the arena
// their PDTs are generated into and an evaluator over a unit catalog it
// re-points per unit; for binding chunks, an evaluator over the pass's
// catalog; the current unit's document ID and posting list per keyword
// (no document has ID 0, so a chunk's stay unset); and detach's scratch.
type worker struct {
	p     *pass
	arena *pdt.Arena
	empty xmltree.Document // the unit document of an empty PDT
	ev    *xqeval.Evaluator
	cat   unitCatalog
	doc   int32
	lists []*invindex.PostingList
	// nodes and kids are detach's slabs for the item's copies, and own is
	// owns for the item.
	nodes []xmltree.Node
	kids  []*xmltree.Node
	own   bool
}

// listsOf returns a document's posting list per keyword: a result's Meta
// nodes come from the unit's document or from the pass's other documents.
func (w *worker) listsOf(doc int32) []*invindex.PostingList {
	if doc == w.doc {
		return w.lists
	}
	return w.p.lists[doc]
}

// unitCatalog is the evaluation catalog of one per-document work unit: the
// unit's PDT document plus the side documents every unit shares read-only.
// No side reference matches an outer document (CompileParsed,
// EachCandidate), so a pattern matching the unit's document is the outer
// one and matches nothing else.
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

// run is work item i — a unit's PDT generation (an empty PDT is evaluated
// as a root-less document, unit.document) and evaluation, a binding chunk's
// evaluation, or a result chunk's results — then collect.
func (w *worker) run(i int, d *itemOutput) {
	p := w.p
	// The partition rule's Outer, and a binding chunk's, is a top-level
	// for clause's.
	fl, _ := p.v.Expr.(*xq.FLWORExpr)
	start := time.Now()
	switch {
	case p.units != nil:
		u := p.units[i]
		pd := pdt.GenerateInto(w.arena, u.q, u.pix, u.name)
		d.nodes, d.bytes = pd.Nodes, pd.Bytes
		generated := time.Now()
		d.gen, start = generated.Sub(start), generated
		doc := u.document(pd, &w.empty)
		w.cat.docs[0] = doc
		d.results, d.err = w.ev.EvalUnit(fl, doc)
		if len(d.results) > 0 { // a unit with no result looks up no list
			w.doc = u.docID
			w.lists = w.lists[:0]
			for _, kw := range p.out.kws {
				w.lists = append(w.lists, u.iix.Lookup(kw))
			}
		}
	case p.bindings != nil:
		for _, b := range p.bindings[p.chunks[i][0]:p.chunks[i][1]] {
			// Tails without a for clause of their own never reach the
			// evaluator's ctx checks; check between outer bindings too.
			if d.err = p.ctx.Err(); d.err != nil {
				break
			}
			var items []xqeval.Item
			if items, d.err = w.ev.EvalTail(fl, b); d.err != nil {
				break
			}
			d.results = appendNodes(d.results, items)
		}
	default:
		d.results = p.results[p.chunks[i][0]:p.chunks[i][1]]
	}
	if d.err == nil {
		w.collect(d)
	}
	d.eval = time.Since(start)
}

// collect is the one collector every work item ends in: it collects the
// item's results' scoring inputs into one slab, applies out.keep, leaving a
// nil slot for each result the caller does not read, and detaches the
// rest.
func (w *worker) collect(d *itemOutput) {
	out := w.p.out
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
}

// statsAt is result i's scoring inputs in a unit's stats slab of k+1 ints
// per result: its term frequencies, carved from the slab, and its byte
// length.
func statsAt(slab []int, k, i int) scoring.Stats {
	at := i * (k + 1)
	return scoring.Stats{TFs: slab[at : at+k : at+k], ByteLen: slab[at+k]}
}

// detach makes an item's kept results (the non-nil slots) independent of
// pooled memory — the pass's PDTs, whose arenas go back to the pool when
// the pass ends, and the evaluator's unit document node, which the
// worker's next unit rebinds — by copying every such node they reach, and
// every node that is not the item's own and leads to one, into one slab,
// and the copies' child pointers into a second, each sized by a first
// walk:
//
//   - A Meta node is copied without children: nothing reads below one once
//     its scoring inputs are collected (addResultStats stops there, and
//     scoring.Materialize fetches a node with an ID whole from base data).
//   - Any other PDT node, and the unit document node, is copied with its
//     children detached.
//   - A constructed element the item owns (worker.owns) keeps its
//     identity; its children are re-pointed to their copies.
//   - Any other node — a side document's document node, a PDT's top node
//     (both '#'-tagged and shared by every item), or a constructed element
//     the item does not own — is copied with its children detached when
//     one of them leads to pooled memory, and kept as it is otherwise.
//
// A node reached along two paths is copied once per path, as both walks
// count it. An owned element reached twice is walked twice, the second
// time over the copies the first made, which are copied again: the second
// walk copies no node the first did not count, so the slabs never grow. A
// skeleton serve reads no pooled memory, so its results are left as they
// are.
func (w *worker) detach(results []*xmltree.Node) {
	if w.arena == nil && len(w.p.arenas) == 0 {
		return
	}
	w.own = w.owns()
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

// owns reports whether the constructed elements the current item's
// results reach are the item's alone, so that detach may write them: a
// unit's or a binding chunk's evaluation built them, unless its evaluator
// keeps some across items (xqeval.Evaluator.KeepsConstructed) or the
// pass's outer bindings are constructed, and so shared by the chunks. A
// result chunk's come from the one evaluation of the whole view, which
// may share an element among results in several chunks.
func (w *worker) owns() bool {
	return w.ev != nil && !w.ev.KeepsConstructed() && !w.p.builtBindings
}

// reused reports whether n is pooled memory: a PDT node (it has a Dewey
// ID) or the evaluator's unit document node.
func (w *worker) reused(n *xmltree.Node) bool {
	return len(n.ID) > 0 || w.arena != nil && n == w.ev.UnitNode()
}

// rewrites reports whether detach re-points n's children in place: n is
// a constructed element the item owns, not pooled memory (reused).
func (w *worker) rewrites(n *xmltree.Node, reused bool) bool {
	return !reused && w.own && xqeval.Constructed(n)
}

// count adds to nodes and kids the copies and copied child pointers that
// copyOut(n) makes, and reports whether n leads to pooled memory. A node
// copyOut may copy counts its child pointers whether it is copied or not,
// so the child slab has room for copyOut's trial of them.
func (w *worker) count(n *xmltree.Node, nodes, kids *int) bool {
	reused := w.reused(n)
	if reused && n.Meta != nil {
		*nodes++
		return true
	}
	inPlace := w.rewrites(n, reused)
	if !inPlace {
		*kids += len(n.Children)
	}
	leads := reused
	for _, c := range n.Children {
		if w.count(c, nodes, kids) {
			leads = true
		}
	}
	if leads && !inPlace {
		*nodes++
	}
	return leads
}

// copyOut returns what stands for n once the pass's pooled memory is
// reused: an owned constructed element itself, its children re-pointed;
// any other node itself when it does not lead to pooled memory, else a
// copy. A copy's child slice is carved from the child slab before the
// children are walked, and given back when none of them changes, which
// leaves nothing appended after it.
func (w *worker) copyOut(n *xmltree.Node) *xmltree.Node {
	reused := w.reused(n)
	if reused && n.Meta != nil {
		w.nodes = append(w.nodes, *n)
		c := &w.nodes[len(w.nodes)-1]
		c.Children = nil
		return c
	}
	if w.rewrites(n, reused) {
		for j, ch := range n.Children {
			if cc := w.copyOut(ch); cc != ch {
				n.Children[j] = cc
			}
		}
		return n
	}
	at := len(w.kids)
	w.kids = append(w.kids, n.Children...)
	kids := w.kids[at:len(w.kids):len(w.kids)]
	leads := reused
	for j, ch := range kids {
		if kids[j] = w.copyOut(ch); kids[j] != ch {
			leads = true
		}
	}
	if !leads {
		w.kids = w.kids[:at]
		return n
	}
	w.nodes = append(w.nodes, *n)
	c := &w.nodes[len(w.nodes)-1]
	c.Children = nil
	if len(kids) > 0 {
		c.Children = kids
	}
	return c
}

// arenaPool recycles PDT arenas across passes: every direct pass
// generates each side document's PDT into an arena of its own, and each
// worker of a per-document pass its units' PDTs into one. An arena grown
// past maxPooledArena nodes is left to the collector, so a search over one
// large document does not keep its slabs resident.
var arenaPool = sync.Pool{New: func() any { return new(pdt.Arena) }}

// maxPooledArena is the capacity, in nodes, of the largest arena the pool
// keeps. It keeps the arenas of the benchmark's INEX-like join views: the
// largest side PDT they generate over one document is 7,083 nodes
// (inex.xml under join4), and the slabs' geometric growth takes the arena
// that holds it to 8,362 nodes of capacity, past 1 << 13. A pooled arena
// retains at most maxPooledArena nodes and as many child pointers, 104
// bytes each (1.6 MiB); the pool holds at most the arenas that were in
// use at once since the collector last emptied it — per concurrent
// search, its side documents and its workers.
const maxPooledArena = 1 << 14

// releaseArenas ends a pass's use of its arenas: each is cleared — no
// result points into it any more (detach), and a cleared arena keeps no
// document's index alive — and pooled unless it grew too large.
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

// pass is the one pass of work items every direct view output and every
// skeleton serve runs, in one of three shapes: per-document units (units),
// each generating its PDT into its worker's pooled arena and evaluating
// the view over it plus the side documents (EvalUnit); outer-binding
// chunks (bindings), each evaluating a whole-view view per binding of its
// outer for clause (EvalTail); or result chunks (results), a skeleton's
// results or a view's evaluated whole. Every item ends in the one
// collector, which writes nil slots into a result chunk's window of
// results: only planned searches, which keep every result, serve a
// skeleton, so its artifact is never written.
type pass struct {
	ctx context.Context
	out *viewOutput
	v   *View
	// sides is the catalog every evaluation reads beside a unit's own PDT,
	// and lists the posting list per keyword of each of its documents (of
	// every candidate, for a skeleton serve).
	sides    *evalCatalog
	lists    map[int32][]*invindex.PostingList
	units    []unit
	bindings []xqeval.Item
	results  []*xmltree.Node
	chunks   [][2]int
	// owner is the document that owns every chunk's results: the literal
	// outer document of a whole-view view (0 when there is none).
	owner int32
	// arenas are the pooled arenas the pass's PDTs live in, the side
	// documents' and, once the items are done, the workers': direct
	// releases them all when the pass ends. A skeleton serve has none.
	arenas []*pdt.Arena
	// builtBindings records that an outer binding is a constructed
	// element, which the binding chunks may share (worker.owns).
	builtBindings bool
}

// run runs the pass's items on a pool of out.stats.Workers and
// concatenates their outputs in item order (units in document-ID order,
// the order whole-view evaluation enumerates the collection in; chunks in
// view order) into out.results, out.rstats, each carved from its item's
// stats slab, and out.owners. It adds the PDTs' size to the stats, and the
// pass's wall time since start to EvalTime, less the share it moves to
// PDTTime: the wall time in proportion to the items' summed generation and
// evaluation-plus-collection times.
func (p *pass) run(start time.Time) error {
	out, stats := p.out, p.out.stats
	if p.results != nil {
		p.chunks = chunkBounds(len(p.results), (len(p.results)+resultChunk-1)/resultChunk)
	}
	n := len(p.chunks)
	var arenas []*pdt.Arena
	if p.units != nil {
		n = len(p.units)
		arenas = make([]*pdt.Arena, max(1, min(stats.Workers, n)))
	}
	items := make([]itemOutput, n)
	err := forEachWorker(p.ctx, stats.Workers, n, func(wi int) func(int) {
		w := &worker{p: p}
		switch {
		case p.units != nil:
			w.arena, w.cat.sides = arenaPool.Get().(*pdt.Arena), p.sides
			arenas[wi] = w.arena
			w.ev = xqeval.New(&w.cat, p.v.Funcs)
		case p.bindings != nil:
			w.ev = xqeval.New(p.sides, p.v.Funcs)
		}
		if w.ev != nil {
			w.ev.SetContext(p.ctx)
		}
		return func(i int) { w.run(i, &items[i]) }
	})
	p.arenas = append(p.arenas, arenas...)
	if err != nil {
		return err
	}
	total := 0
	var gen, eval time.Duration
	for i := range items {
		d := &items[i]
		if d.err != nil {
			return &evalError{d.err}
		}
		stats.PDTNodes += d.nodes
		stats.PDTBytes += d.bytes
		gen, eval = gen+d.gen, eval+d.eval
		total += len(d.results)
	}
	k := len(out.kws)
	out.rstats = make([]scoring.Stats, 0, total)
	// Result chunks are windows of p.results, which holds their nil slots
	// already, and own nothing: their results are a skeleton's or an
	// unpartitionable view's, which the cluster primitives never read.
	out.results, out.owners = p.results, nil
	if p.results == nil {
		out.results = make([]*xmltree.Node, 0, total)
		out.owners = make([]int32, 0, total)
	}
	for i := range items {
		d := &items[i]
		for j := range d.results {
			out.rstats = append(out.rstats, statsAt(d.stats, k, j))
		}
		if p.results == nil {
			owner := p.owner
			if p.units != nil {
				owner = p.units[i].docID
			}
			out.results = append(out.results, d.results...)
			for range d.results {
				out.owners = append(out.owners, owner)
			}
		}
	}
	wall, split := time.Since(start), time.Duration(0)
	if busy := gen + eval; busy > 0 {
		split = time.Duration(float64(wall) * float64(gen) / float64(busy))
	}
	stats.PDTTime += split
	stats.EvalTime = wall - split
	return nil
}

// direct is direct view output: index-only PDT generation plus evaluation
// of the unchanged view, as one pass. The side documents — the candidates
// of the other references for a view that runs per document
// (perDocumentReason), every candidate otherwise — get their PDTs
// (PDTTime), in pooled arenas that the pass releases when it ends, and
// keyword lists first, once. The pass's wall time counts
// from the keyword lists on, a whole-view view's outer bindings or whole
// evaluation included (run).
func (pl *plan) direct(ctx context.Context, v *View, out *viewOutput) error {
	p := &pass{ctx: ctx, out: out, v: v}
	defer func() { releaseArenas(p.arenas) }()
	sides := pl.units
	if v.perDocument {
		p.units, sides = pl.split(v.Deps.Outer)
	}
	if err := p.generatePDTs(sides); err != nil {
		return err
	}
	start := time.Now()
	p.lists = keywordLists(sides, out.kws)
	if !v.perDocument {
		if err := p.evalOuter(pl); err != nil {
			return err
		}
	}
	return p.run(start)
}

// evalOuter readies a whole-view pass: a top-level FLWOR that opens with a
// for clause is cut into chunks of its outer bindings, four per worker so
// that fast workers take over from slow ones (FLWOR evaluates bindings
// independently: xqeval.OuterBindings), each owned by a literal outer
// document; any other view is evaluated whole, for result chunks.
func (p *pass) evalOuter(pl *plan) error {
	ev := xqeval.New(p.sides, p.v.Funcs)
	ev.SetContext(p.ctx)
	if fl, ok := p.v.Expr.(*xq.FLWORExpr); ok {
		bindings, partitionable, err := ev.OuterBindings(fl)
		if err != nil {
			return &evalError{err}
		}
		if partitionable {
			p.bindings = bindings
			p.builtBindings = slices.ContainsFunc(bindings, func(b xqeval.Item) bool {
				n, ok := b.(*xmltree.Node)
				return ok && xqeval.Constructed(n)
			})
			p.chunks = chunkBounds(len(bindings), p.out.stats.Workers*4)
			outer := slices.IndexFunc(pl.units, func(u unit) bool { return u.q.Doc == p.v.Deps.Outer })
			if outer >= 0 && !docname.IsPattern(p.v.Deps.Outer) {
				p.owner = pl.units[outer].docID
			}
			return nil
		}
	}
	items, err := ev.Eval(p.v.Expr, nil)
	if err != nil {
		return &evalError{err}
	}
	p.results = appendNodes(nil, items)
	return nil
}
