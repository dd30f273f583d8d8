package pdt

import (
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pred"
	"vxml/internal/qpt"
	"vxml/internal/xmltree"
)

// Reference computes the PDT by directly evaluating Definitions 1-3 over
// the materialized document: candidate elements (descendant constraints)
// bottom-up, PDT elements (ancestor constraints) top-down. It exists to
// validate Generate in tests; it scans the whole document and is not part
// of the production pipeline.
func Reference(q *qpt.QPT, doc *xmltree.Document, keywords []string) *PDT {
	var elements []*xmltree.Node
	doc.Root.Walk(func(n *xmltree.Node) { elements = append(elements, n) })

	// ce[qnode] = set of candidate elements (Definition 1), computed
	// bottom-up over the QPT.
	ce := map[*qpt.Node]map[*xmltree.Node]bool{}
	var computeCE func(n *qpt.Node)
	computeCE = func(n *qpt.Node) {
		for _, e := range n.Edges {
			computeCE(e.Child)
		}
		set := map[*xmltree.Node]bool{}
		for _, v := range elements {
			if v.Tag != n.Tag {
				continue
			}
			if len(n.Preds) > 0 && (!v.IsLeaf() || !pred.All(n.Preds, v.Value)) {
				continue
			}
			ok := true
			for _, e := range n.Edges {
				if !e.Mandatory {
					continue
				}
				childSet := ce[e.Child]
				found := false
				for c := range childSet {
					if e.Axis == pathindex.Child && v.ID.IsParentOf(c.ID) ||
						e.Axis == pathindex.Descendant && v.ID.IsAncestorOf(c.ID) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				set[v] = true
			}
		}
		ce[n] = set
	}
	for _, e := range q.Root.Edges {
		computeCE(e.Child)
	}

	// below reports whether v stands where edge e puts it below the
	// elements of parents. The virtual root stands for the document node:
	// a '/' edge from it admits only the root element, a '//' edge admits
	// any element.
	below := func(v *xmltree.Node, e *qpt.Edge, parents map[*xmltree.Node]bool) bool {
		if e.From == q.Root {
			return e.Axis == pathindex.Descendant || v == doc.Root
		}
		for p := range parents {
			if e.Axis == pathindex.Child && p.ID.IsParentOf(v.ID) ||
				e.Axis == pathindex.Descendant && p.ID.IsAncestorOf(v.ID) {
				return true
			}
		}
		return false
	}

	// pe[qnode] = set of PDT elements (Definition 2), top-down.
	pe := map[*qpt.Node]map[*xmltree.Node]bool{}
	var computePE func(n *qpt.Node)
	computePE = func(n *qpt.Node) {
		set := map[*xmltree.Node]bool{}
		for v := range ce[n] {
			if below(v, n.Parent, pe[n.Parent.From]) {
				set[v] = true
			}
		}
		pe[n] = set
		for _, e := range n.Edges {
			computePE(e.Child)
		}
	}
	for _, e := range q.Root.Edges {
		computePE(e.Child)
	}

	// valued = elements whose root path matches the pattern of a 'v' node,
	// predicates and mandatory edges aside: the evaluator may compare their
	// values whichever node selects them (qpt.PathMatch.Valued). path[qnode]
	// is the elements matching the node's pattern, top-down.
	valued := map[*xmltree.Node]bool{}
	path := map[*qpt.Node]map[*xmltree.Node]bool{}
	var computePath func(n *qpt.Node)
	computePath = func(n *qpt.Node) {
		set := map[*xmltree.Node]bool{}
		for _, v := range elements {
			if v.Tag == n.Tag && below(v, n.Parent, path[n.Parent.From]) {
				set[v] = true
				valued[v] = valued[v] || n.V
			}
		}
		path[n] = set
		for _, e := range n.Edges {
			computePath(e.Child)
		}
	}
	for _, e := range q.Root.Edges {
		computePath(e.Child)
	}

	// Union the PE sets, remembering which annotations apply per element.
	type annot struct{ needV, needC bool }
	selected := map[*xmltree.Node]*annot{}
	var collect func(n *qpt.Node)
	collect = func(n *qpt.Node) {
		for v := range pe[n] {
			a := selected[v]
			if a == nil {
				a = &annot{}
				selected[v] = a
			}
			a.needV = a.needV || n.V
			a.needC = a.needC || n.C
		}
		for _, e := range n.Edges {
			collect(e.Child)
		}
	}
	for _, e := range q.Root.Edges {
		collect(e.Child)
	}
	// A content-marked virtual root stands for a bound document node the
	// view returns: the root element is its content.
	if q.Root.C {
		if selected[doc.Root] == nil {
			selected[doc.Root] = &annot{}
		}
		selected[doc.Root].needC = true
	}

	inv := invindex.Build(doc)
	infos := make([]*Element, 0, len(selected))
	for v, a := range selected {
		info := &Element{
			ID:       v.ID,
			Tag:      v.Tag,
			Value:    v.Value,
			HasValue: v.IsLeaf(),
			ByteLen:  v.ByteLen,
			NeedV:    a.needV || valued[v],
			NeedC:    a.needC,
		}
		if a.needC {
			info.TFs = make([]int, len(keywords))
			for i, k := range keywords {
				info.TFs[i] = inv.Lookup(k).SubtreeTF(v.ID)
			}
		}
		infos = append(infos, info)
	}
	return BuildPruned(infos, doc.Name)
}
