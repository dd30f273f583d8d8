package pdt

import (
	"slices"
	"sort"
	"sync"

	"vxml/internal/dewey"
	"vxml/internal/pathindex"
	"vxml/internal/qpt"
	"vxml/internal/xmltree"
)

// PDT is a generated Pruned Document Tree. Doc is an xmltree document whose
// nodes keep their ORIGINAL base-document Dewey IDs (so provenance survives
// evaluation); 'v' nodes carry materialized values and 'c' nodes carry a
// NodeMeta payload (source ID, subtree byte length, per-keyword tf) exactly
// as in the paper's Figure 6(b). Doc is nil when no element qualifies.
type PDT struct {
	SourceName string
	Doc        *xmltree.Document
	Nodes      int
	Bytes      int // serialized byte estimate of the pruned tree
}

// ctItem is one entry of a CT node's CTQNodeSet: the state of the element
// with respect to one matching QPT node (Appendix E). The DescendantMap is
// a bitmask over the node's mandatory children (their positions are
// precomputed per QPT).
type ctItem struct {
	q         *qpt.Node
	owner     *ctNode
	pl        []*ctItem // ancestor items whose QPT node is q's parent
	dm        uint64    // satisfied mandatory-children bits
	need      int       // unsatisfied mandatory children
	candidate bool
	inPdt     bool
}

// ctNode is a node of the Candidate Tree. The live CT is exactly the
// root-to-cursor chain (the paper's left-most path), maintained as a stack.
type ctNode struct {
	id       dewey.ID
	depth    int
	tag      string
	items    []*ctItem
	cache    []*cacheEntry // descendants awaiting ancestor-constraint checks
	value    string
	hasValue bool
	byteLen  int
	tfs      []int
	needV    bool
	needC    bool
	rec      *emitInfo // lazily built emission record
}

// cacheEntry is a pending element that satisfies its descendant constraints
// but whose ancestor constraints are still undecided (the paper's
// PdtCache). Each group tracks one candidate QPT node independently so the
// 'v'/'c' annotations of the element come only from QPT nodes whose
// ancestor constraints actually resolve.
type cacheEntry struct {
	info   *emitInfo
	groups []*entryGroup
}

// entryGroup is one candidate QPT node's pending ancestor constraint.
type entryGroup struct {
	q  *qpt.Node
	pl []*ctItem
}

// Element is the payload of one pruned-tree element: identity, selectively
// materialized value, and scoring payload. It is shared with the GTP
// comparator, which produces the same pruned trees by structural joins.
type Element struct {
	ID       dewey.ID
	Tag      string
	Value    string
	HasValue bool
	ByteLen  int
	TFs      []int
	NeedV    bool
	NeedC    bool

	listed bool // already appended to the generator's output
}

type emitInfo = Element

type generator struct {
	q      *qpt.QPT
	lists  *Lists
	stack  []*ctNode
	out    []*emitInfo
	filter *KeywordFilter
	// layout is the QPT's DescendantMap bit layout, computed once per QPT
	// (qpt.MandatoryLayout) and shared read-only across generator runs.
	layout *qpt.MandLayout
	// free lists: CT nodes and items die when finalized, so the generator
	// recycles them to keep the merge allocation-free in steady state. The
	// generator itself is recycled through genPool, so the free lists (and
	// the merge cursors and emission-record chunks below) survive across
	// documents and searches.
	nodePool []*ctNode
	itemPool []*ctItem
	cursors  []int
	recChunk []emitInfo
	// tfChunk arenas the per-'c'-node TF slices of a run that was given
	// keywords (the engine's runs are not: its PDTs carry no TFs, see
	// subtreeTFs). Unlike the scratch above it escapes into the PDT's
	// NodeMeta payloads, which outlive the run, so reset drops it instead
	// of recycling it — the win is one allocation per chunk, not per node.
	tfChunk []int
}

// genPool recycles generators across GenerateFiltered calls: a search runs
// one generation per candidate document, and the Candidate-Tree scratch
// (stack, free lists, cursors) is identical in shape every time.
var genPool = sync.Pool{New: func() any { return &generator{} }}

// record returns the node's emission record, carving it from the
// generator's chunk arena on first use. Payload fields are final by the
// time any emission can happen, because an element's own postings always
// precede its descendants in Dewey order. Records are referenced only
// until the PDT is assembled, so the chunks are recycled with the
// generator.
func (g *generator) record(n *ctNode) *emitInfo {
	if n.rec == nil {
		if len(g.recChunk) == cap(g.recChunk) {
			g.recChunk = make([]emitInfo, 0, 256)
		}
		g.recChunk = append(g.recChunk, emitInfo{
			ID:       n.id,
			Tag:      n.tag,
			Value:    n.value,
			HasValue: n.hasValue,
			ByteLen:  n.byteLen,
			TFs:      n.tfs,
		})
		n.rec = &g.recChunk[len(g.recChunk)-1]
	}
	return n.rec
}

// KeywordFilter enables the monotone special case of the paper's "avoid
// producing pruned view elements that do not make it to the top few
// results" future-work direction (§7): for selection views, a view result
// is exactly one base element, so an element of Node whose subtree lacks a
// required keyword can be skipped during PDT generation — it can never be
// a query result. Joins and nesting make this unsound in general (the
// paper's non-monotonicity discussion), so callers only pass a filter for
// selection-shaped views.
type KeywordFilter struct {
	Node *qpt.Node
	// Conjunctive requires every keyword in the element; otherwise any.
	Conjunctive bool
}

// Generate builds the PDT for one QPT over one document's prepared lists,
// using only index data (no base-document access).
func Generate(q *qpt.QPT, lists *Lists, sourceName string) *PDT {
	return GenerateFiltered(q, lists, sourceName, nil)
}

// GenerateFiltered is Generate with an optional keyword filter for
// selection views. Generators are recycled through a pool: the Candidate
// Tree scratch, free lists and emission-record chunks survive across
// candidate documents, so steady-state generation allocates only for the
// PDT it emits.
func GenerateFiltered(q *qpt.QPT, lists *Lists, sourceName string, filter *KeywordFilter) *PDT {
	g := genPool.Get().(*generator)
	g.q, g.lists, g.filter, g.layout = q, lists, filter, q.MandatoryLayout()
	// Virtual root CT node: the document itself, always in the PDT.
	rootItem := &ctItem{q: q.Root, inPdt: true, need: g.layout.Count[q.Root]}
	rootItem.candidate = rootItem.need == 0
	virtual := &ctNode{depth: 0, items: []*ctItem{rootItem}}
	rootItem.owner = virtual
	g.stack = append(g.stack[:0], virtual)

	g.mergeLists()

	// End of input: drain everything above the virtual root.
	for len(g.stack) > 1 {
		g.finalize(g.pop())
	}
	// The document itself is always "in the PDT": flush its cache.
	for _, x := range sortEntries(virtual.cache) {
		for _, gr := range x.groups {
			if anyPLInPdt(gr.pl) {
				g.emit(x.info, gr.q)
			}
		}
	}
	pdt := g.build(sourceName)
	g.reset()
	genPool.Put(g)
	return pdt
}

// reset clears the per-run state while keeping the recycled scratch (free
// lists, cursor and record chunks, slice backings) for the next run.
func (g *generator) reset() {
	g.q, g.lists, g.filter, g.layout = nil, nil, nil, nil
	g.stack = g.stack[:0]
	for i := range g.out {
		g.out[i] = nil
	}
	g.out = g.out[:0]
	// Records emitted in previous runs are dead once their PDT is
	// assembled; reuse the final chunk's storage.
	g.recChunk = g.recChunk[:0]
	// TF payloads escaped into the PDT: drop the arena, never reuse it.
	g.tfChunk = nil
}

// mergeLists is the single k-way merge pass over the ordered ID lists.
func (g *generator) mergeLists() {
	for len(g.cursors) < len(g.lists.Paths) {
		g.cursors = append(g.cursors, 0)
	}
	cursors := g.cursors[:len(g.lists.Paths)]
	for i := range cursors {
		cursors[i] = 0
	}
	for {
		minIdx := -1
		for i, pl := range g.lists.Paths {
			if cursors[i] >= len(pl.Postings) {
				continue
			}
			if minIdx < 0 ||
				dewey.Less(pl.Postings[cursors[i]].ID, g.lists.Paths[minIdx].Postings[cursors[minIdx]].ID) {
				minIdx = i
			}
		}
		if minIdx < 0 {
			return
		}
		pl := g.lists.Paths[minIdx]
		g.insert(pl, pl.Postings[cursors[minIdx]])
		cursors[minIdx]++
	}
}

// insert pushes the element (and its matched prefixes) onto the CT,
// finalizing nodes that are no longer ancestors of the incoming ID.
func (g *generator) insert(pl *PathList, posting pathindex.Posting) {
	id := posting.ID
	// Pop completed branches: everything on the stack that is not a prefix
	// of the incoming ID has seen all of its descendants.
	for len(g.stack) > 1 {
		top := g.stack[len(g.stack)-1]
		if id.HasPrefix(top.id) && len(top.id) < len(id) {
			break
		}
		if dewey.Equal(top.id, id) {
			break // same element arriving from another list
		}
		g.finalize(g.pop())
	}
	// Push matched prefixes not yet on the stack.
	for d := 1; d <= len(id); d++ {
		if g.onStack(d) != nil {
			continue
		}
		qnodes := g.filterQNodes(pl.Matches[d-1], id.Prefix(d))
		if len(qnodes) == 0 {
			continue
		}
		g.push(id.Prefix(d), d, pl.Segs[d-1], qnodes)
	}
	// The target node: structural matches may exclude the list's own QPT
	// node when it carries predicates (those items exist only because this
	// posting passed the predicate-filtered lookup).
	target := g.onStack(len(id))
	if target == nil {
		if len(pl.QNode.Preds) == 0 {
			return // element matched no QPT node (stale prefix)
		}
		g.push(id, len(id), pl.Segs[len(id)-1], nil)
		target = g.stack[len(g.stack)-1]
	}
	if len(pl.QNode.Preds) > 0 && !target.hasItemFor(pl.QNode) {
		if g.filter == nil || pl.QNode != g.filter.Node || g.keywordEligible(id) {
			g.addItem(target, pl.QNode)
		}
	}
	// Attach the posting payload.
	if posting.HasValue && !target.hasValue {
		target.value = posting.Value
		target.hasValue = true
	}
	if posting.ByteLen > 0 {
		target.byteLen = posting.ByteLen
	}
	if pl.QNode.V {
		target.needV = true
	}
	if pl.QNode.C {
		target.needC = true
	}
	if target.needC && target.tfs == nil && len(g.lists.Inv) > 0 {
		target.tfs = g.subtreeTFs(target.id)
	}
}

// filterQNodes drops the keyword filter's node from a match set when the
// element's subtree cannot satisfy the keyword semantics. The input slice
// is shared across postings and never mutated.
func (g *generator) filterQNodes(qnodes []*qpt.Node, id dewey.ID) []*qpt.Node {
	if g.filter == nil {
		return qnodes
	}
	for i, q := range qnodes {
		if q == g.filter.Node && !g.keywordEligible(id) {
			out := make([]*qpt.Node, 0, len(qnodes)-1)
			out = append(out, qnodes[:i]...)
			return append(out, qnodes[i+1:]...)
		}
	}
	return qnodes
}

// keywordEligible checks the subtree term frequencies of id against the
// keyword filter (index-only).
func (g *generator) keywordEligible(id dewey.ID) bool {
	if len(g.lists.Inv) == 0 {
		return true
	}
	for _, pl := range g.lists.Inv {
		has := pl.ContainsSubtree(id)
		if g.filter.Conjunctive && !has {
			return false
		}
		if !g.filter.Conjunctive && has {
			return true
		}
	}
	return g.filter.Conjunctive
}

func (n *ctNode) hasItemFor(q *qpt.Node) bool {
	for _, it := range n.items {
		if it.q == q {
			return true
		}
	}
	return false
}

// onStack returns the stack node at the given Dewey depth, or nil. The
// stack holds only matched prefixes, so depths are sparse.
func (g *generator) onStack(depth int) *ctNode {
	for i := len(g.stack) - 1; i >= 1; i-- {
		n := g.stack[i]
		if n.depth == depth {
			return n
		}
		if n.depth < depth {
			return nil
		}
	}
	return nil
}

func (g *generator) pop() *ctNode {
	n := g.stack[len(g.stack)-1]
	g.stack = g.stack[:len(g.stack)-1]
	return n
}

// push creates the CT node for one matched prefix, wiring one ctItem per
// matching QPT node with its ParentList (respecting the edge axis) and
// DescendantMap.
func (g *generator) push(id dewey.ID, depth int, tag string, qnodes []*qpt.Node) {
	var n *ctNode
	if len(g.nodePool) > 0 {
		n = g.nodePool[len(g.nodePool)-1]
		g.nodePool = g.nodePool[:len(g.nodePool)-1]
	} else {
		n = &ctNode{}
	}
	n.id, n.depth, n.tag = id, depth, tag
	g.stack = append(g.stack, n)
	for _, qn := range qnodes {
		g.addItem(n, qn)
	}
}

// release recycles a finalized CT node and its items. Safe because after
// finalize nothing references the structs themselves: cache-entry
// ParentLists are rewritten to live ancestors before the node pops, and the
// emission record has its own allocation. The pl slice backings must NOT be
// reused, though — pending cache-entry groups alias them (finalize hands
// item.pl to entryGroups), so a recycled item appending into an old backing
// would corrupt a live group's ParentList.
func (g *generator) release(n *ctNode) {
	for _, it := range n.items {
		*it = ctItem{}
		g.itemPool = append(g.itemPool, it)
	}
	items := n.items[:0]
	*n = ctNode{}
	n.items = items
	g.nodePool = append(g.nodePool, n)
}

// addItem wires one ctItem for a QPT node onto an existing CT node,
// building its ParentList from the strict ancestors currently on the stack
// (depth-adjacent for '/' edges, any ancestor for '//').
func (g *generator) addItem(n *ctNode, qn *qpt.Node) {
	var item *ctItem
	if len(g.itemPool) > 0 {
		item = g.itemPool[len(g.itemPool)-1]
		g.itemPool = g.itemPool[:len(g.itemPool)-1]
	} else {
		item = &ctItem{}
	}
	item.q, item.owner, item.need = qn, n, g.layout.Count[qn]
	parentQ := g.q.Root
	axis := pathindex.Child
	if qn.Parent != nil {
		parentQ = qn.Parent.From
		axis = qn.Parent.Axis
	}
	for _, anc := range g.stack {
		if anc.depth >= n.depth {
			continue // strict ancestors only
		}
		if axis == pathindex.Child && anc.depth != n.depth-1 {
			continue
		}
		for _, ai := range anc.items {
			if ai.q == parentQ {
				item.pl = append(item.pl, ai)
			}
		}
	}
	n.items = append(n.items, item)
	if qn.V {
		n.needV = true
	}
	if qn.C {
		n.needC = true
	}
}

// subtreeTFs aggregates per-keyword term frequencies for the subtree of id
// from the inverted lists (index-only, O(log n) per keyword). It runs only
// when the lists were prepared with keywords; a keyword-free PDT carries no
// TFs, and whoever scores its results derives them as the same Dewey-range
// sums over the same lists, for the elements that reach a result only. The
// slices are carved full-capacity from tfChunk, whose chunks live as long
// as the PDT payloads referencing them.
func (g *generator) subtreeTFs(id dewey.ID) []int {
	n := len(g.lists.Inv)
	if cap(g.tfChunk)-len(g.tfChunk) < n {
		size := 256
		if n > size {
			size = n
		}
		g.tfChunk = make([]int, 0, size)
	}
	start := len(g.tfChunk)
	g.tfChunk = g.tfChunk[:start+n]
	tfs := g.tfChunk[start : start+n : start+n]
	for i, pl := range g.lists.Inv {
		tfs[i] = pl.SubtreeTF(id)
	}
	return tfs
}

// finalize is called when a CT node has seen all of its descendants: decide
// candidacy (descendant constraints), propagate DescendantMap bits to
// parents, resolve or defer the ancestor constraints, and process the
// node's own PdtCache (Figure 27).
func (g *generator) finalize(n *ctNode) {
	parent := g.stack[len(g.stack)-1]
	var pending []*entryGroup
	for _, item := range n.items {
		if item.need > 0 {
			continue // descendant constraints unsatisfiable: failed
		}
		if !item.candidate {
			item.candidate = true
			g.propagate(item)
		}
		// Ancestor constraint: some parent item already in the PDT? The
		// propagation above may have promoted ancestors (the paper's InPdt
		// optimization), so mandatory chains usually resolve right here.
		if !item.inPdt {
			for _, p := range item.pl {
				if p.inPdt {
					item.inPdt = true
					break
				}
			}
		}
		if item.inPdt {
			g.emit(g.record(n), item.q)
		} else if len(item.pl) > 0 {
			pending = append(pending, &entryGroup{q: item.q, pl: item.pl})
		}
	}
	if len(pending) > 0 {
		parent.cache = append(parent.cache, &cacheEntry{info: g.record(n), groups: pending})
	}
	// Process the node's PdtCache: entry groups reference items of n or of
	// live ancestors (the upward-rewrite invariant).
	for _, x := range sortEntries(n.cache) {
		var remaining []*entryGroup
		for _, gr := range x.groups {
			if anyPLInPdt(gr.pl) {
				g.emit(x.info, gr.q)
				continue
			}
			var lifted []*ctItem
			for _, p := range gr.pl {
				if p.owner != n {
					lifted = append(lifted, p)
					continue
				}
				if p.candidate {
					// The group's hope now rests on p's own parents
					// (Figure 27 line 28: x.PL.replace(q, q.PL)).
					lifted = append(lifted, p.pl...)
				}
				// failed items contribute nothing
			}
			if len(lifted) > 0 {
				gr.pl = dedupeItems(lifted)
				remaining = append(remaining, gr)
			}
		}
		if len(remaining) > 0 {
			x.groups = remaining
			parent.cache = append(parent.cache, x)
		}
	}
	n.cache = nil
	g.release(n)
}

// propagate sets the DescendantMap bit of every parent item and cascades
// candidate promotion upward; promoted ancestors whose own ancestor
// constraints are already resolved become InPdt immediately and are emitted
// (paper §4.2.2.1), which is what lets descendants emit directly instead of
// travelling through PdtCaches.
func (g *generator) propagate(item *ctItem) {
	bit := g.layout.Bit[item.q]
	if bit == 0 {
		return // item.q is an optional child: no DescendantMap entry
	}
	for _, p := range item.pl {
		if p.dm&bit != 0 {
			continue
		}
		p.dm |= bit
		p.need--
		if p.need == 0 && !p.candidate {
			p.candidate = true
			g.propagate(p)
			if !p.inPdt {
				for _, pp := range p.pl {
					if pp.inPdt {
						p.inPdt = true
						g.emit(g.record(p.owner), p.q)
						break
					}
				}
			}
		}
	}
}

func anyPLInPdt(pl []*ctItem) bool {
	for _, p := range pl {
		if p.inPdt {
			return true
		}
	}
	return false
}

// dedupeItems removes duplicate items in place. ParentLists are a handful
// of entries, so the quadratic scan beats allocating a set.
func dedupeItems(items []*ctItem) []*ctItem {
	if len(items) < 2 {
		return items
	}
	out := items[:0]
	for _, it := range items {
		dup := false
		for _, o := range out {
			if o == it {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, it)
		}
	}
	return out
}

func sortEntries(entries []*cacheEntry) []*cacheEntry {
	sort.SliceStable(entries, func(i, j int) bool {
		return dewey.Less(entries[i].info.ID, entries[j].info.ID)
	})
	return entries
}

// emit records the element as a PDT member qualified via QPT node q,
// merging the annotations of multiple qualifying nodes.
func (g *generator) emit(rec *emitInfo, q *qpt.Node) {
	if !rec.listed {
		rec.listed = true
		rec.NeedV = false
		rec.NeedC = false
		g.out = append(g.out, rec)
	}
	rec.NeedV = rec.NeedV || q.V
	rec.NeedC = rec.NeedC || q.C
}

// build sorts the emitted elements and assembles the pruned document.
func (g *generator) build(sourceName string) *PDT {
	slices.SortFunc(g.out, func(a, b *emitInfo) int { return dewey.Compare(a.ID, b.ID) })
	return assemble(g.out, sourceName)
}

// BuildPruned assembles a pruned document from an element list (in any
// order). It is used by the GTP comparator, which derives the same element
// sets through structural joins.
func BuildPruned(elements []*Element, sourceName string) *PDT {
	sorted := append([]*Element(nil), elements...)
	sort.Slice(sorted, func(i, j int) bool { return dewey.Less(sorted[i].ID, sorted[j].ID) })
	return assemble(sorted, sourceName)
}

// assemble turns a Dewey-sorted element list into a pruned xmltree
// document: every element's parent is its closest emitted ancestor
// (Definition 3). Nodes and scoring payloads are carved from slabs sized
// by the element list, so assembling a PDT costs a fixed handful of
// allocations plus child-slice growth.
func assemble(infos []*emitInfo, sourceName string) *PDT {
	pdt := &PDT{SourceName: sourceName}
	if len(infos) == 0 {
		return pdt
	}
	slab := make([]xmltree.Node, len(infos))
	nMeta := 0
	for _, info := range infos {
		if info.NeedC {
			nMeta++
		}
	}
	metaSlab := make([]xmltree.NodeMeta, 0, nMeta)
	var root *xmltree.Node
	chain := make([]*xmltree.Node, 0, 16) // current root-to-leaf construction chain
	for i, info := range infos {
		node := &slab[i]
		node.Tag, node.ID, node.ByteLen = info.Tag, info.ID, info.ByteLen
		if info.NeedV && info.HasValue {
			node.Value = info.Value
		}
		if info.NeedC {
			metaSlab = append(metaSlab, xmltree.NodeMeta{SrcID: info.ID, SrcLen: info.ByteLen, TFs: info.TFs})
			node.Meta = &metaSlab[len(metaSlab)-1]
		}
		pdt.Nodes++
		pdt.Bytes += 2*len(info.Tag) + 5 + len(node.Value)
		// pop chain until top is an ancestor of node
		for len(chain) > 0 && !chain[len(chain)-1].ID.IsAncestorOf(info.ID) {
			chain = chain[:len(chain)-1]
		}
		if len(chain) == 0 {
			if root != nil {
				// Multiple top-level emitted elements cannot happen within
				// one document (the document root is their common prefix),
				// but guard defensively by keeping the first.
				continue
			}
			root = node
		} else {
			parent := chain[len(chain)-1]
			node.Parent = parent
			parent.Children = append(parent.Children, node)
		}
		chain = append(chain, node)
	}
	pdt.Doc = &xmltree.Document{Name: sourceName, Root: root, DocID: root.ID[0]}
	return pdt
}
