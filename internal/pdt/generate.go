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
// evaluation) and base subtree byte lengths; 'v' nodes carry materialized
// values and 'c' nodes a Meta mark, with per-keyword term frequencies when
// generated with keywords — the paper's Figure 6(b) payload, whose source ID
// and byte length are the node's own. Doc is nil when no element qualifies.
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
	id    dewey.ID
	depth int
	items []*ctItem
	cache []*cacheEntry // descendants awaiting ancestor-constraint checks
	// seq is the node's push sequence number. Pushes happen in strict
	// document order (see push), so seq is the element's rank among the
	// pushed elements; everything the PDT needs to know about the element
	// is filed under it (generator.src, generator.marks).
	seq int32
}

// srcRef says where a pushed element's identity and payload are in the
// prepared lists: posting number `posting` of list number `list`, whose ID
// the element's is the depth-long prefix of. The element has a payload
// (value, byte length) when it is that posting's own element, i.e. depth
// is the ID's full length.
type srcRef struct{ list, posting, depth int32 }

// Per-element marks, set by emit: the element is in the PDT, and which
// annotations the QPT nodes it qualified through ask for.
const (
	markEmitted uint8 = 1 << iota
	markV
	markC
)

// cacheEntry is a pending element that satisfies its descendant constraints
// but whose ancestor constraints are still undecided (the paper's
// PdtCache). Each group tracks one candidate QPT node independently so the
// 'v'/'c' annotations of the element come only from QPT nodes whose
// ancestor constraints actually resolve.
type cacheEntry struct {
	seq    int32 // the element, as ctNode.seq
	groups []*entryGroup
}

// entryGroup is one candidate QPT node's pending ancestor constraint. pl is
// the group's own copy (item ParentLists are recycled with their items).
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
}

type generator struct {
	q     *qpt.QPT
	lists *Lists
	stack []*ctNode
	// layout is the QPT's DescendantMap bit layout, computed once per QPT
	// (qpt.MandatoryLayout) and shared read-only across generator runs.
	layout *qpt.MandLayout
	// Everything below is scratch: CT nodes, items, cache entries and
	// groups die when finalized and go back to their free lists. The
	// generator itself is recycled through genPool, so the scratch survives
	// across documents and searches and a steady-state run allocates only
	// what escapes into the PDT it returns (build's slabs).
	nodePool  freeList[ctNode]
	itemPool  freeList[ctItem]
	entryPool freeList[cacheEntry]
	groupPool freeList[entryGroup]
	cursors   []int
	lift      []*ctItem // finalize's rewritten ParentList
	// src and marks are indexed by push sequence number: where each pushed
	// element lives in the lists, and whether (and how annotated) it was
	// emitted. There is no emission record — an element's payload stays in
	// the lists until build copies it into the PDT — and because sequence
	// numbers rank the elements, reading marks front to back yields the
	// PDT's elements in document order without a sort.
	src   []srcRef
	marks []uint8
	// prepared is the lists of the pooled entry, GenerateFromIndex, and the
	// memory they are prepared in. build takes tags, ID prefixes and values
	// from the lists, and none of them lives in that memory (a filtered
	// posting's header does; the ID and value it points to do not), so no
	// region of it reaches a returned PDT.
	prepared listMemory
}

// freeList recycles structs that die in bulk and are needed again at once.
// Whoever puts one back resets it first, keeping the slice backings worth
// reusing.
type freeList[T any] []*T

func (f *freeList[T]) get() *T {
	if k := len(*f); k > 0 {
		x := (*f)[k-1]
		*f = (*f)[:k-1]
		return x
	}
	return new(T)
}

func (f *freeList[T]) put(x *T) { *f = append(*f, x) }

// genPool recycles generators across Generate calls: a search runs
// one generation per candidate document, and the Candidate-Tree scratch
// is identical in shape every time.
var genPool = sync.Pool{New: func() any { return &generator{} }}

// Generate builds the PDT for one QPT over one document's prepared lists,
// using only index data (no base-document access). Generators are recycled
// through a pool: the Candidate Tree and its free lists are scratch that
// survives across candidate documents, so steady-state generation
// allocates only for the PDT it emits.
func Generate(q *qpt.QPT, lists *Lists, sourceName string) *PDT {
	g := genPool.Get().(*generator)
	pdt := g.run(q, lists, sourceName, new(Arena))
	genPool.Put(g)
	return pdt
}

// GenerateFromIndex is PrepareLists without keywords followed by Generate,
// with the lists prepared in the pooled generator's memory: the
// per-candidate pipeline of a search, which allocates, once warm, only the
// PDT it returns and what the index allocates per lookup (a stored index
// decodes its lists afresh).
func GenerateFromIndex(q *qpt.QPT, pix *pathindex.Index, sourceName string) *PDT {
	return GenerateInto(new(Arena), q, pix, sourceName)
}

// GenerateInto is GenerateFromIndex into a: the PDT, its document and its
// nodes are a's memory, overwritten by the next GenerateInto or Clear on
// a. Generation into a warm arena allocates only what the index allocates
// per lookup.
func GenerateInto(a *Arena, q *qpt.QPT, pix *pathindex.Index, sourceName string) *PDT {
	g := genPool.Get().(*generator)
	pdt := g.fromIndex(q, pix, sourceName, a)
	genPool.Put(g)
	return pdt
}

// fromIndex is one GenerateInto on g.
func (g *generator) fromIndex(q *qpt.QPT, pix *pathindex.Index, sourceName string, a *Arena) *PDT {
	g.prepared.prepare(q, pix, nil, nil)
	return g.run(q, &g.prepared.Lists, sourceName, a)
}

// Arena is the memory of one PDT at a time, reused from one generation to
// the next: a node slab, a child-pointer slab and the PDT and Document
// headers. A fresh arena's slabs are sized exactly; a reused one's are
// cleared and grown. An Arena is not safe for concurrent use.
type Arena struct {
	nodes []xmltree.Node
	kids  []*xmltree.Node
	pdt   PDT
	doc   xmltree.Document
	top   xmltree.Node // the parent of several top-level elements (link)
}

// topTag is the top node's tag: '#' starts no element name.
const topTag = "#top"

// Clear zeroes the arena's PDT, keeping the slabs' capacity: every node of
// it reads as the zero node, and the arena keeps nothing of the document
// the PDT came from alive — no tag, value or ID, all of which point into
// the document's index.
func (a *Arena) Clear() {
	clear(a.nodes)
	clear(a.kids)
	a.nodes, a.kids = a.nodes[:0], a.kids[:0]
	a.pdt, a.doc, a.top = PDT{}, xmltree.Document{}, xmltree.Node{}
}

// Cap is the number of nodes the arena holds without growing.
func (a *Arena) Cap() int { return cap(a.nodes) }

// nodeSlab returns the arena's node slab, cleared, with room for n nodes.
func (a *Arena) nodeSlab(n int) []xmltree.Node {
	clear(a.nodes)
	a.nodes = slices.Grow(a.nodes[:0], n)
	return a.nodes
}

// kidSlab returns the arena's child-pointer slab, cleared, n long.
func (a *Arena) kidSlab(n int) []*xmltree.Node {
	clear(a.kids)
	a.kids = slices.Grow(a.kids[:0], n)[:n]
	return a.kids
}

// run is one generation, into a. It leaves g reset: scratch backings kept,
// nothing that points into the document's index.
func (g *generator) run(q *qpt.QPT, lists *Lists, sourceName string, a *Arena) *PDT {
	g.q, g.lists, g.layout = q, lists, q.MandatoryLayout()
	// Virtual root CT node: the document itself, always in the PDT.
	virtual := g.newNode(nil, srcRef{})
	rootItem := g.newItem(virtual, q.Root)
	rootItem.inPdt = true
	rootItem.candidate = rootItem.need == 0

	g.mergeLists()

	// End of input: drain everything above the virtual root.
	for len(g.stack) > 1 {
		g.finalize(g.pop())
	}
	// The document itself is always "in the PDT": flush its cache.
	for _, x := range virtual.cache {
		for _, gr := range x.groups {
			if anyPLInPdt(gr.pl) {
				g.emit(x.seq, gr.q)
			}
			g.freeGroup(gr)
		}
		g.freeEntry(x)
	}
	g.release(g.pop())
	pdt := g.build(sourceName, a)
	g.reset()
	return pdt
}

// reset clears the per-run state while keeping the scratch backings for the
// next run. Nothing kept points into the document's index — released CT
// nodes are zeroed, and so are the prepared lists' PathLists, lookup
// results and filtered postings — so a pooled generator never keeps a
// replaced document's index alive.
func (g *generator) reset() {
	g.q, g.lists, g.layout = nil, nil, nil
	g.src, g.marks = g.src[:0], g.marks[:0]
	g.prepared.reset()
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
		for i := range g.lists.Paths {
			pl := &g.lists.Paths[i]
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
		g.insert(minIdx, cursors[minIdx])
		cursors[minIdx]++
	}
}

// insert pushes the element of one posting (and its matched prefixes) onto
// the CT, finalizing nodes that are no longer ancestors of the incoming ID.
func (g *generator) insert(list, posting int) {
	pl := &g.lists.Paths[list]
	id := pl.Postings[posting].ID
	at := func(depth int) srcRef { return srcRef{int32(list), int32(posting), int32(depth)} }
	// Pop completed branches: everything on the stack that is not a prefix
	// of the incoming ID (or the ID itself, arriving from another list) has
	// seen all of its descendants.
	top := g.stack[len(g.stack)-1]
	for len(g.stack) > 1 && !id.HasPrefix(top.id) {
		g.finalize(g.pop())
		top = g.stack[len(g.stack)-1]
	}
	// Push matched prefixes not yet on the stack. Those are all deeper than
	// the top: the match set of a prefix depends only on its path, so a
	// shallower prefix that is not on the stack was found unmatched when
	// the top was pushed.
	for d := top.depth + 1; d <= len(id); d++ {
		if qnodes := pl.Matches[d-1]; len(qnodes) > 0 {
			g.push(id[:d], at(d), qnodes)
		}
	}
	// The target node: structural matches may exclude the list's own QPT
	// node when it carries predicates (those items exist only because this
	// posting passed the predicate-filtered lookup), and the root element
	// off the virtual root's list (qpt.QPT.Probes) may match none.
	root := pl.QNode == g.q.Root
	target := g.stack[len(g.stack)-1]
	if target.depth != len(id) {
		if len(pl.QNode.Preds) == 0 && !root {
			return // element matched no QPT node (stale prefix)
		}
		g.push(id, at(len(id)), nil)
		target = g.stack[len(g.stack)-1]
	}
	// The element came off a list itself, so this posting has its payload
	// (a node pushed as a prefix only pointed at a descendant's).
	g.src[target.seq] = at(len(id))
	if root {
		// The document node is content, and the root element its content:
		// in the PDT whatever QPT node it matches, as a 'c' node.
		g.marks[target.seq] |= markEmitted | markC
		return
	}
	if len(pl.QNode.Preds) > 0 && !target.hasItemFor(pl.QNode) {
		g.newItem(target, pl.QNode)
	}
}

func (n *ctNode) hasItemFor(q *qpt.Node) bool {
	for _, it := range n.items {
		if it.q == q {
			return true
		}
	}
	return false
}

func (g *generator) pop() *ctNode {
	n := g.stack[len(g.stack)-1]
	g.stack = g.stack[:len(g.stack)-1]
	return n
}

// push creates the CT node for one matched prefix, wiring one ctItem per
// matching QPT node with its ParentList (respecting the edge axis) and
// DescendantMap.
//
// Pushes happen in strict document order, which is why newNode's sequence
// numbers rank the elements: an insert pushes prefixes of the incoming ID
// by increasing depth, and a prefix P that is not on the stack is greater
// than the previous incoming ID prev — were it a prefix of prev too it
// would have been pushed (or found unmatched) then and still be on the
// stack, and otherwise P and prev differ inside P, where P agrees with the
// incoming ID, which is greater than prev. Every ID pushed earlier is prev
// or a prefix of an ID up to prev, so it is smaller than P.
func (g *generator) push(id dewey.ID, at srcRef, qnodes []*qpt.Node) {
	n := g.newNode(id, at)
	for _, qn := range qnodes {
		g.newItem(n, qn)
	}
}

// newNode takes a CT node from the free list, stamps it with the next push
// sequence number and makes it the top of the stack.
func (g *generator) newNode(id dewey.ID, at srcRef) *ctNode {
	n := g.nodePool.get()
	n.id, n.depth, n.seq = id, int(at.depth), int32(len(g.src))
	g.src, g.marks = append(g.src, at), append(g.marks, 0)
	g.stack = append(g.stack, n)
	return n
}

// release recycles a finalized CT node and its items, slice backings
// included. Safe because after finalize nothing references them: cache
// entries were handed to the parent with their ParentLists rewritten to
// live ancestors (and groups copy the ParentLists they start from), and
// what build needs of the element is filed under its sequence number.
func (g *generator) release(n *ctNode) {
	for _, it := range n.items {
		*it = ctItem{pl: it.pl[:0]}
		g.itemPool.put(it)
	}
	*n = ctNode{items: n.items[:0], cache: n.cache[:0]}
	g.nodePool.put(n)
}

// newItem wires one ctItem for a QPT node onto the CT node on top of the
// stack, building its ParentList from the strict ancestors below it
// (depth-adjacent for '/' edges, any ancestor for '//').
func (g *generator) newItem(n *ctNode, qn *qpt.Node) *ctItem {
	item := g.itemPool.get()
	item.q, item.owner, item.need = qn, n, g.layout.Count[qn]
	parentQ := g.q.Root
	axis := pathindex.Child
	if qn.Parent != nil {
		parentQ = qn.Parent.From
		axis = qn.Parent.Axis
	}
	ancestors := g.stack[:len(g.stack)-1]
	if axis == pathindex.Child && len(ancestors) > 0 {
		// Only the element's parent qualifies, and if matched it is the
		// stack entry right below.
		ancestors = ancestors[len(ancestors)-1:]
		if ancestors[0].depth != n.depth-1 {
			ancestors = nil
		}
	}
	for _, anc := range ancestors {
		for _, ai := range anc.items {
			if ai.q == parentQ {
				item.pl = append(item.pl, ai)
			}
		}
	}
	n.items = append(n.items, item)
	return item
}

func (g *generator) freeEntry(x *cacheEntry) {
	x.groups = x.groups[:0]
	g.entryPool.put(x)
}

func (g *generator) newGroup(q *qpt.Node, pl []*ctItem) *entryGroup {
	gr := g.groupPool.get()
	gr.q, gr.pl = q, append(gr.pl[:0], pl...)
	return gr
}

func (g *generator) freeGroup(gr *entryGroup) {
	gr.q = nil
	g.groupPool.put(gr)
}

// finalize is called when a CT node has seen all of its descendants: decide
// candidacy (descendant constraints), propagate DescendantMap bits to
// parents, resolve or defer the ancestor constraints, and process the
// node's own PdtCache (Figure 27).
func (g *generator) finalize(n *ctNode) {
	parent := g.stack[len(g.stack)-1]
	var pending *cacheEntry
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
			item.inPdt = anyPLInPdt(item.pl)
		}
		if item.inPdt {
			g.emit(n.seq, item.q)
		} else if len(item.pl) > 0 {
			if pending == nil {
				pending = g.entryPool.get()
				pending.seq = n.seq
				parent.cache = append(parent.cache, pending)
			}
			pending.groups = append(pending.groups, g.newGroup(item.q, item.pl))
		}
	}
	// Process the node's PdtCache: entry groups reference items of n or of
	// live ancestors (the upward-rewrite invariant). The order in which
	// entries are visited is immaterial: emission is idempotent per
	// (element, QPT node) and build places elements by sequence number.
	for _, x := range n.cache {
		remaining := x.groups[:0]
		for _, gr := range x.groups {
			if anyPLInPdt(gr.pl) {
				g.emit(x.seq, gr.q)
				g.freeGroup(gr)
				continue
			}
			lifted := g.lift[:0]
			for _, p := range gr.pl {
				if p.owner != n {
					lifted = append(lifted, p)
				} else if p.candidate {
					// The group's hope now rests on p's own parents
					// (Figure 27 line 28: x.PL.replace(q, q.PL)).
					lifted = append(lifted, p.pl...)
				}
				// failed items contribute nothing
			}
			g.lift = lifted
			if len(lifted) == 0 {
				g.freeGroup(gr)
				continue
			}
			gr.pl = append(gr.pl[:0], dedupeItems(lifted)...)
			remaining = append(remaining, gr)
		}
		x.groups = remaining
		if len(remaining) > 0 {
			parent.cache = append(parent.cache, x)
		} else {
			g.freeEntry(x)
		}
	}
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
			if !p.inPdt && anyPLInPdt(p.pl) {
				p.inPdt = true
				g.emit(p.owner.seq, p.q)
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

// emit marks the element as a PDT member qualified via QPT node q, merging
// the annotations of multiple qualifying nodes.
func (g *generator) emit(seq int32, q *qpt.Node) {
	m := markEmitted
	if q.V {
		m |= markV
	}
	if q.C {
		m |= markC
	}
	g.marks[seq] |= m
}

// build copies the emitted elements out of the lists into a's slabs, in
// push order — which is document order, so nothing is sorted — and links
// them. Payloads are final by now: an element's own postings precede
// its descendants', so src points at one of them if there is any. Term
// frequencies are summed here, for the emitted 'c' elements only, and only
// when the lists were prepared with keywords: a keyword-free PDT carries
// none — its 'c' elements share xmltree.ContentMark — and whoever scores
// its results derives them as the same Dewey-range sums over the same
// lists (index-only either way).
func (g *generator) build(sourceName string, a *Arena) *PDT {
	nodes, metas := 0, 0
	inv := g.lists.Inv
	for _, m := range g.marks {
		if m&markEmitted != 0 {
			nodes++
			if m&markC != 0 && len(inv) > 0 {
				metas++
			}
		}
	}
	slab := a.nodeSlab(nodes)
	var metaSlab []xmltree.NodeMeta
	var tfSlab []int
	if metas > 0 {
		metaSlab = make([]xmltree.NodeMeta, 0, metas)
		tfSlab = make([]int, 0, metas*len(inv))
	}
	for seq, m := range g.marks {
		if m&markEmitted == 0 {
			continue
		}
		at := g.src[seq]
		pl := &g.lists.Paths[at.list]
		p := &pl.Postings[at.posting]
		slab = append(slab, xmltree.Node{Tag: pl.Segs[at.depth-1], ID: p.ID[:at.depth]})
		node := &slab[len(slab)-1]
		own := int(at.depth) == len(p.ID)
		if own {
			node.ByteLen = p.ByteLen
			if m&markV != 0 && p.HasValue {
				node.Value = p.Value
			}
		}
		switch {
		case m&markC == 0:
		case len(inv) == 0:
			node.Meta = xmltree.ContentMark
		default:
			var tfs []int
			if own {
				for _, il := range inv {
					tfSlab = append(tfSlab, il.SubtreeTF(node.ID))
				}
				tfs = tfSlab[len(tfSlab)-len(inv) : len(tfSlab) : len(tfSlab)]
			}
			metaSlab = append(metaSlab, xmltree.NodeMeta{TFs: tfs})
			node.Meta = &metaSlab[len(metaSlab)-1]
		}
	}
	a.nodes = slab
	return a.link(sourceName)
}

// BuildPruned assembles a pruned document from an element list (in any
// order). It is used by the GTP comparator, which derives the same element
// sets through structural joins.
func BuildPruned(elements []*Element, sourceName string) *PDT {
	sorted := append([]*Element(nil), elements...)
	sort.Slice(sorted, func(i, j int) bool { return dewey.Less(sorted[i].ID, sorted[j].ID) })
	a := &Arena{nodes: make([]xmltree.Node, len(sorted))}
	slab := a.nodes
	metas := 0
	for _, el := range sorted {
		if el.NeedC && el.TFs != nil {
			metas++
		}
	}
	metaSlab := make([]xmltree.NodeMeta, 0, metas)
	for i, el := range sorted {
		node := &slab[i]
		node.Tag, node.ID, node.ByteLen = el.Tag, el.ID, el.ByteLen
		if el.NeedV && el.HasValue {
			node.Value = el.Value
		}
		switch {
		case el.NeedC && el.TFs != nil:
			metaSlab = append(metaSlab, xmltree.NodeMeta{TFs: el.TFs})
			node.Meta = &metaSlab[len(metaSlab)-1]
		case el.NeedC:
			node.Meta = xmltree.ContentMark
		}
	}
	return a.link(sourceName)
}

// link turns a's node slab, elements in document order, into a pruned
// xmltree document: every element's parent is its closest emitted ancestor
// (Definition 3), the top of the root-to-leaf chain of emitted elements
// once the chain is cut back to the element's ancestors; several elements
// without one (a QPT whose first edge is '//x') hang under a's top node,
// whose tag no view step can name. Child slices are carved from a's child
// slab, and the PDT, its document and the top node are a's headers, so
// linking allocates at most the child slab whatever the size.
func (a *Arena) link(sourceName string) *PDT {
	slab := a.nodes
	pdt := &a.pdt
	*pdt = PDT{SourceName: sourceName, Nodes: len(slab)}
	if len(slab) == 0 {
		return pdt
	}
	for i := range slab {
		pdt.Bytes += 2*len(slab[i].Tag) + 5 + len(slab[i].Value)
	}
	// Every element is the child of exactly one node, maybe the top node.
	kids := a.kidSlab(len(slab))
	a.top = xmltree.Node{Tag: topTag}
	chainBuf := [32]*xmltree.Node{&a.top}
	// Two walks down the same chain, which starts at the top node. The
	// first counts each node's children in the length of its Children. The
	// second carves each node's exact child slice and fills it: the slab is
	// in document order, so a parent is carved before any child appends to
	// it and siblings append in order.
	carved := 0
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			carved = len(a.top.Children)
			a.top.Children = kids[:0:carved]
		}
		chain := chainBuf[:1]
		for i := range slab {
			node := &slab[i]
			for len(chain) > 1 && !chain[len(chain)-1].ID.IsAncestorOf(node.ID) {
				chain = chain[:len(chain)-1]
			}
			if parent := chain[len(chain)-1]; pass == 0 {
				parent.Children = kids[:len(parent.Children)+1]
			} else {
				parent.Children = append(parent.Children, node)
			}
			if n := len(node.Children); pass == 1 && n > 0 {
				node.Children = kids[carved : carved : carved+n]
				carved += n
			}
			chain = append(chain, node)
		}
	}
	root := &a.top
	if len(root.Children) == 1 {
		root = root.Children[0]
	}
	a.doc = xmltree.Document{Name: sourceName, Root: root, DocID: slab[0].ID[0]}
	pdt.Doc = &a.doc
	return pdt
}
