package xqeval

import (
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
)

// evalSteps replaces the stack's region from mark — a step expression's
// base — with the result of applying the path steps to every node of it,
// deduplicating nodes while preserving encounter order (which is document
// order when the base sequence is in document order). The base moves to one
// of the evaluator's two step buffers; intermediate steps alternate between
// them and the last appends to the stack. A step from a single document
// node cannot meet a node twice and skips the seen set — that is every step
// of a path rooted at a variable bound to one element; the set remains for
// multi-node bases (nested matches under //a//b) and for constructed
// elements, which hold their children by reference and may hold one node
// twice.
func (e *Evaluator) evalSteps(mark int, steps []pathindex.Step) {
	e.steps[0] = append(e.steps[0][:0], e.stack[mark:]...)
	e.stack = e.stack[:mark]
	for i, st := range steps {
		current := e.steps[i%2]
		last := i == len(steps)-1
		next := e.stack
		if !last {
			next = e.steps[(i+1)%2][:0]
		}
		var seen map[*xmltree.Node]bool
		if !singleDocumentNode(current) {
			if e.seen == nil {
				e.seen = map[*xmltree.Node]bool{}
			}
			clear(e.seen)
			seen = e.seen
		}
		for _, item := range current {
			n, ok := item.(*xmltree.Node)
			if !ok {
				continue // atomic values have no children
			}
			if st.Axis == pathindex.Child {
				for _, c := range n.Children {
					if c.Tag == st.Tag && !seen[c] && isChild(n, c) {
						if seen != nil {
							seen[c] = true
						}
						next = append(next, c)
					}
				}
			} else {
				collectDescendants(n, st.Tag, seen, &next)
			}
		}
		if last {
			e.stack = next
		} else {
			e.steps[(i+1)%2] = next
		}
	}
}

// isChild reports whether c, a child of n in n's tree, is n's child in the
// document: a PDT hangs an element under its closest emitted ancestor
// (Definition 3), so a document node's child must sit one Dewey level
// below n (or be the root). Constructed nodes have no levels.
func isChild(n, c *xmltree.Node) bool {
	switch {
	case len(c.ID) == 0:
		return true
	case len(n.ID) > 0:
		return len(c.ID) == len(n.ID)+1
	case n.Tag == docNodeTag:
		return len(c.ID) == 1
	}
	return true
}

// singleDocumentNode reports whether the sequence is one node of a document
// tree — base or PDT, both carry Dewey IDs — or the "#document" wrapper over
// one (docNode), as opposed to an element built by a constructor.
func singleDocumentNode(items []Item) bool {
	if len(items) != 1 {
		return false
	}
	n, ok := items[0].(*xmltree.Node)
	return ok && (len(n.ID) > 0 || n.Tag == docNodeTag)
}

// collectDescendants appends the descendants of n with the given tag in
// document order, skipping those in seen (nil: none can repeat).
func collectDescendants(n *xmltree.Node, tag string, seen map[*xmltree.Node]bool, out *[]Item) {
	for _, c := range n.Children {
		if c.Tag == tag && !seen[c] {
			if seen != nil {
				seen[c] = true
			}
			*out = append(*out, c)
		}
		collectDescendants(c, tag, seen, out)
	}
}

// Atomize converts an item to its atomic string value: atomics are
// themselves, nodes contribute their direct text content (the supported
// grammar restricts value predicates to leaf elements, whose string value
// is exactly their text).
func Atomize(item Item) string {
	switch x := item.(type) {
	case string:
		return x
	case *xmltree.Node:
		return x.Value
	}
	return ""
}
