// Package qpt implements the Query Pattern Tree and its generation from a
// view definition (paper §3.3 and Appendix B). The QPT generalizes the GTP
// of Chen et al. with two node annotations: 'v' marks nodes whose values
// are required during query evaluation (join keys, predicate operands) and
// 'c' marks nodes whose content is propagated to the view output (needed
// for scoring and final materialization). Edges carry an axis ('/' or '//')
// and are mandatory or optional.
//
// One deliberate deviation from the appendix pseudocode: leaves compared to
// literals (e.g. year > 1995) are annotated 'v' in addition to carrying the
// predicate, matching the paper's Figure 6(b) where the PDT materializes
// year values. This lets the unchanged evaluator re-check the predicate
// over the PDT, which is how the architecture avoids modifying the
// evaluator.
package qpt

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"vxml/internal/pathindex"
	"vxml/internal/pred"
	"vxml/internal/xq"
)

// Node is one node of a QPT. The root of a finalized QPT is a virtual node
// standing for the document itself (Tag == ""); all other nodes carry
// element tag names.
type Node struct {
	Tag   string
	Preds []pred.Predicate
	V     bool // value required during evaluation
	C     bool // content propagated to the view output
	Edges []*Edge
	// Parent is the edge leading to this node (nil for the root).
	Parent *Edge
}

// Edge links a parent QPT node to a child.
type Edge struct {
	From      *Node
	Child     *Node
	Axis      pathindex.Axis
	Mandatory bool
}

// QPT is a finalized query pattern tree for one document.
type QPT struct {
	Doc  string // document name from fn:doc
	Root *Node  // virtual document node

	layoutOnce sync.Once
	layout     *MandLayout

	probesOnce sync.Once
	probes     []Probe

	// matchSets memoises MatchSets per full data path. It lives and dies
	// with the compiled QPT, which is immutable, so entries never go stale.
	matchMu   sync.RWMutex
	matchSets map[string][][]*Node
}

// MandLayout is the DescendantMap bit layout of a QPT: for every node, the
// bit it occupies among its parent's mandatory children, and for every
// parent, how many mandatory children it has. PDT generation consults it
// for every element of every candidate document, and a QPT is immutable
// after Generate, so the layout is computed once per QPT and shared
// (read-only) by concurrent searches instead of being rebuilt per document.
type MandLayout struct {
	// Bit maps a node to 1 << (its position among the parent's mandatory
	// children); absent for optional children.
	Bit map[*Node]uint64
	// Count maps a node to its number of mandatory children.
	Count map[*Node]int
}

// MandatoryLayout returns the QPT's DescendantMap bit layout, computing it
// on first use. Safe for concurrent callers.
func (q *QPT) MandatoryLayout() *MandLayout {
	q.layoutOnce.Do(func() {
		l := &MandLayout{Bit: map[*Node]uint64{}, Count: map[*Node]int{}}
		var walk func(n *Node)
		walk = func(n *Node) {
			pos := 0
			for _, e := range n.Edges {
				if e.Mandatory {
					l.Bit[e.Child] = 1 << pos
					pos++
				}
				walk(e.Child)
			}
			l.Count[n] = pos
		}
		walk(q.Root)
		q.layout = l
	})
	return q.layout
}

// Probe is one path-index lookup PDT generation issues for the QPT: the node
// it serves, the root-anchored pattern leading to it and the node's
// predicates, compiled once per QPT rather than once per candidate
// document.
type Probe struct {
	Node  *Node
	Steps []pathindex.Step
	Preds []pred.Compiled
}

// Probes returns the fixed probe set of Figure 7, in pre-order: one path
// lookup per node that has no mandatory child edges (which includes all
// leaves), plus lookups for 'v' nodes (retrieving values alongside IDs) and
// for 'c' nodes (whose byte lengths ride in the postings). A node with a
// mandatory child and no annotation needs none — its IDs arrive as prefixes
// of its mandatory descendants. A content-marked virtual root (a view
// returning a bound document node, see graft) adds a first lookup, of the
// document's root element, which the document node's content is. Computed
// on first use; safe for concurrent callers.
func (q *QPT) Probes() []Probe {
	q.probesOnce.Do(func() {
		if q.Root.C {
			q.probes = append(q.probes, Probe{Node: q.Root, Steps: []pathindex.Step{{Axis: pathindex.Child, Tag: pathindex.Any}}})
		}
		for _, n := range q.Nodes() {
			if !n.HasMandatoryChild() || n.V || n.C {
				pr := Probe{Node: n, Steps: n.StepsFromRoot()}
				for _, p := range n.Preds {
					pr.Preds = append(pr.Preds, p.Compile())
				}
				q.probes = append(q.probes, pr)
			}
		}
	})
	return q.probes
}

// MatchSets returns, for each prefix depth d (1-based) of the full data path
// whose tags are segs, the set of QPT nodes whose root-to-node pattern
// matches the first d segments. It handles '//' edges and repeated tag names
// ("//a//a" over "/a/a/a") by dynamic programming over the QPT.
//
// Predicate-bearing leaves are deliberately excluded: an element counts as
// a candidate for such a node only if its value satisfies the predicates
// (Definition 1), which is known only from that node's own filtered list —
// PDT generation adds those items when the filtered posting arrives.
//
// The result depends only on the QPT and the path — not on the document, let
// alone the keywords — so it is computed once per full path and shared
// read-only by every candidate document and every search. Safe for
// concurrent callers.
func (q *QPT) MatchSets(fullPath string, segs []string) [][]*Node {
	q.matchMu.RLock()
	sets, ok := q.matchSets[fullPath]
	q.matchMu.RUnlock()
	if ok {
		return sets
	}
	sets = q.computeMatchSets(segs)
	q.matchMu.Lock()
	if q.matchSets == nil {
		q.matchSets = map[string][][]*Node{}
	}
	q.matchSets[fullPath] = sets
	q.matchMu.Unlock()
	return sets
}

func (q *QPT) computeMatchSets(segs []string) [][]*Node {
	n := len(segs)
	out := make([][]*Node, n)
	// reach[node] = bitset over depths 0..n (depth 0 = virtual root)
	reach := map[*Node][]bool{}
	rootReach := make([]bool, n+1)
	rootReach[0] = true
	reach[q.Root] = rootReach

	var walk func(node *Node)
	walk = func(node *Node) {
		for _, e := range node.Edges {
			child := e.Child
			parentReach := reach[node]
			childReach := make([]bool, n+1)
			// any = parent reachable at some depth < d-1
			any := false
			for d := 1; d <= n; d++ {
				anyBelow := any
				any = any || parentReach[d-1]
				if segs[d-1] != child.Tag {
					continue
				}
				if e.Axis == pathindex.Child {
					childReach[d] = parentReach[d-1]
				} else {
					childReach[d] = anyBelow || parentReach[d-1]
				}
			}
			reach[child] = childReach
			if len(child.Preds) == 0 {
				for d := 1; d <= n; d++ {
					if childReach[d] {
						out[d-1] = append(out[d-1], child)
					}
				}
			}
			walk(child)
		}
	}
	walk(q.Root)
	return out
}

// addChild appends a child node and returns it.
func (n *Node) addChild(tag string, axis pathindex.Axis, mandatory bool) *Node {
	c := &Node{Tag: tag}
	e := &Edge{From: n, Child: c, Axis: axis, Mandatory: mandatory}
	c.Parent = e
	n.Edges = append(n.Edges, e)
	return c
}

// HasMandatoryChild reports whether any child edge is mandatory.
func (n *Node) HasMandatoryChild() bool {
	for _, e := range n.Edges {
		if e.Mandatory {
			return true
		}
	}
	return false
}

// IsLeaf reports whether the node has no child edges.
func (n *Node) IsLeaf() bool { return len(n.Edges) == 0 }

// StepsFromRoot returns the root-anchored path pattern leading to n,
// suitable for path index lookups.
func (n *Node) StepsFromRoot() []pathindex.Step {
	var rev []pathindex.Step
	for cur := n; cur.Parent != nil; cur = cur.Parent.From {
		rev = append(rev, pathindex.Step{Axis: cur.Parent.Axis, Tag: cur.Tag})
	}
	steps := make([]pathindex.Step, len(rev))
	for i := range rev {
		steps[i] = rev[len(rev)-1-i]
	}
	return steps
}

// Nodes returns all non-virtual nodes in pre-order.
func (q *QPT) Nodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Tag != "" {
			out = append(out, n)
		}
		for _, e := range n.Edges {
			walk(e.Child)
		}
	}
	walk(q.Root)
	return out
}

// Depth returns the maximum node depth (root element = 1).
func (q *QPT) Depth() int {
	var walk func(n *Node, d int) int
	walk = func(n *Node, d int) int {
		max := d
		for _, e := range n.Edges {
			if m := walk(e.Child, d+1); m > max {
				max = m
			}
		}
		return max
	}
	return walk(q.Root, 0)
}

// String renders the QPT in a stable indented form used by golden tests:
//
//	doc(books.xml)
//	  /books m
//	    //book m
//	      /year m v pred(> 1995)
//	      /title o c
//	      /isbn o v
func (q *QPT) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "doc(%s)\n", q.Doc)
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		for _, e := range n.Edges {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(e.Axis.String())
			b.WriteString(e.Child.Tag)
			if e.Mandatory {
				b.WriteString(" m")
			} else {
				b.WriteString(" o")
			}
			if e.Child.V {
				b.WriteString(" v")
			}
			if e.Child.C {
				b.WriteString(" c")
			}
			for _, p := range e.Child.Preds {
				fmt.Fprintf(&b, " pred(%s)", p)
			}
			b.WriteString("\n")
			walk(e.Child, depth+1)
		}
	}
	walk(q.Root, 1)
	return b.String()
}

// ----------------------------------------------------------- generation --

// twig is an intermediate pattern tree rooted at an anchor: a document
// (anchor "doc:name"), a variable ("$name"), or the context item (".").
type twig struct {
	anchor string
	root   *Node // virtual anchor node; Edges are real pattern steps
	leaf   *Node // spine leaf for grafting further steps
}

func docAnchor(name string) string { return "doc:" + name }
func varAnchor(name string) string { return "$" + name }

// generator carries the function environment during analysis, and the
// number of pattern nodes created so far (see MaxNodes).
type generator struct {
	funcs map[string]*xq.FuncDecl
	depth int
	nodes int
}

// Generate derives the QPT set for a view definition: one QPT per document
// referenced by the view. Every variable must be resolvable within the
// expression (the engine extracts the view from the keyword query before
// calling Generate).
func Generate(view xq.Expr, funcs map[string]*xq.FuncDecl) ([]*QPT, error) {
	g := &generator{funcs: funcs}
	twigs, err := g.analyzeReturn(view)
	if err != nil {
		return nil, err
	}
	byDoc := map[string]*QPT{}
	var order []string
	for _, t := range twigs {
		if !strings.HasPrefix(t.anchor, "doc:") {
			return nil, fmt.Errorf("qpt: unresolved anchor %q in view (free variable or context item)", t.anchor)
		}
		name := strings.TrimPrefix(t.anchor, "doc:")
		q := byDoc[name]
		if q == nil {
			q = &QPT{Doc: name, Root: &Node{}}
			byDoc[name] = q
			order = append(order, name)
		}
		mergeInto(q.Root, t.root)
	}
	sort.Strings(order)
	qpts := make([]*QPT, 0, len(order))
	for _, name := range order {
		q := byDoc[name]
		if err := validate(q); err != nil {
			return nil, err
		}
		qpts = append(qpts, q)
	}
	if len(qpts) == 0 {
		return nil, fmt.Errorf("qpt: view references no documents")
	}
	return qpts, nil
}

// validate rejects QPT shapes outside the supported grammar: predicates on
// the string values of non-leaf elements (paper §3.1 lists these as
// unsupported).
func validate(q *QPT) error {
	var err error
	var walk func(n *Node)
	walk = func(n *Node) {
		if len(n.Preds) > 0 && len(n.Edges) > 0 && err == nil {
			err = fmt.Errorf("qpt: predicate %s on non-leaf element <%s> is not supported", n.Preds[0], n.Tag)
		}
		for _, e := range n.Edges {
			walk(e.Child)
		}
	}
	walk(q.Root)
	return err
}

// mergeInto merges src's children into dst, unifying structurally identical
// chains (same tag, axis, annotation and predicates) so that several paths
// into the same document form a single twig as in Figure 6(a). Two nodes
// unify only when they also require the same: a node is emitted only if
// every mandatory child edge is matched, so `$d/b` unified with `$d/b/a`
// would drop every b without an a, which the first path still binds.
func mergeInto(dst, src *Node) {
	dst.V = dst.V || src.V
	dst.C = dst.C || src.C
	for _, e := range src.Edges {
		var match *Edge
		for _, d := range dst.Edges {
			if d.Child.Tag == e.Child.Tag && d.Axis == e.Axis &&
				d.Mandatory == e.Mandatory && predsEqual(d.Child.Preds, e.Child.Preds) &&
				sameRequirement(d.Child, e.Child) {
				match = d
				break
			}
		}
		if match == nil {
			e.From = dst
			dst.Edges = append(dst.Edges, e)
			continue
		}
		mergeInto(match.Child, e.Child)
	}
}

// sameRequirement reports whether a and b have the same mandatory child
// edges, recursively: whether a data element that matches one matches the
// other.
func sameRequirement(a, b *Node) bool {
	return slices.EqualFunc(mandatoryEdges(a), mandatoryEdges(b), func(x, y *Edge) bool {
		return x.Child.Tag == y.Child.Tag && x.Axis == y.Axis &&
			predsEqual(x.Child.Preds, y.Child.Preds) && sameRequirement(x.Child, y.Child)
	})
}

func mandatoryEdges(n *Node) []*Edge {
	return slices.DeleteFunc(slices.Clone(n.Edges), func(e *Edge) bool { return !e.Mandatory })
}

func predsEqual(a, b []pred.Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
