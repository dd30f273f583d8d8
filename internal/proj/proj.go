// Package proj implements the "Proj" comparator of the paper's evaluation
// (§5.1): projecting XML documents in the style of Marian & Siméon
// [VLDB'03]. Unlike PDT generation it (a) treats the QPT as a set of
// isolated root-to-node paths with no twig (mandatory-edge) semantics,
// (b) materializes every projected element, and (c) scans the entire base
// document rather than probing indices — the three differences the paper
// calls out in §4. The benchmark, like the paper, times projection only
// ("Proj merely characterizes the cost of generating projected
// documents").
package proj

import (
	"vxml/internal/pathindex"
	"vxml/internal/qpt"
	"vxml/internal/xmltree"
)

// Project scans the document and keeps every element whose root path
// matches one of the QPT's root-to-node paths (isolated path semantics: no
// mandatory-edge or predicate pruning), along with the ancestors needed to
// preserve the hierarchy. Matched elements keep their values.
func Project(doc *xmltree.Document, q *qpt.QPT) *xmltree.Document {
	patterns := make([][]pathindex.Step, 0)
	for _, n := range q.Nodes() {
		patterns = append(patterns, n.StepsFromRoot())
	}

	var project func(n *xmltree.Node, prefix string) *xmltree.Node
	project = func(n *xmltree.Node, prefix string) *xmltree.Node {
		path := prefix + "/" + n.Tag
		matched := false
		for _, p := range patterns {
			if pathindex.MatchPath(p, path) {
				matched = true
				break
			}
		}
		var kids []*xmltree.Node
		for _, c := range n.Children {
			if pc := project(c, path); pc != nil {
				kids = append(kids, pc)
			}
		}
		if !matched && len(kids) == 0 {
			return nil
		}
		out := &xmltree.Node{Tag: n.Tag, ID: n.ID, ByteLen: n.ByteLen, Children: kids}
		if matched {
			out.Value = n.Value
		}
		return out
	}
	root := project(doc.Root, "")
	if root == nil {
		return &xmltree.Document{Name: doc.Name, DocID: doc.DocID}
	}
	return &xmltree.Document{Name: doc.Name, Root: root, DocID: doc.DocID}
}

// Size reports the number of elements in a projected document.
func Size(doc *xmltree.Document) int {
	if doc.Root == nil {
		return 0
	}
	return doc.Root.NodeCount()
}
