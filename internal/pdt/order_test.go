// The generator places emitted elements by push sequence number instead of
// sorting them; these tests pin that placement against the comparison sort
// (BuildPruned). External test package:
// testkit imports the root package, which imports pdt.
package pdt_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pdt"
	"vxml/internal/qpt"
	"vxml/internal/testkit"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// orderViews are QPT shapes beyond testkit.EqViews, over the nested a/b/c/d
// documents of nestedDoc: an optional child; a predicate-carrying leaf,
// whose elements also arrive from the '//b' list of the return (one element
// from two lists); and '//' edges under repeated tags, where a b that
// closes before its a has seen the mandatory c waits in an ancestor's
// PdtCache and is lifted across nested a's. The last three return a bound
// document node, whose content is the root element: alone, beside a '//'
// path that no QPT node matches the root element on, and beside a path
// whose first QPT node does match it.
var orderViews = []string{
	`for $x in fn:doc(r.xml)/r/a return <o>{$x/b}</o>`,
	`for $x in fn:doc(r.xml)/r//a where $x//b = 'xml' return <o>{$x//b}, {$x/c}</o>`,
	`for $x in fn:doc(r.xml)/r//a where $x//c = '1' return <o>{$x//b}</o>`,
	`for $x in fn:doc(r.xml)/r//a//a return $x`,
	`for $d in fn:doc(r.xml) return $d`,
	`for $d in fn:doc(r.xml) return <o>{$d}, {$d//b}</o>`,
	`for $d in fn:doc(r.xml) return <o>{$d}, {$d/r/a/c}</o>`,
}

// nestedDoc builds a random document over a small tag alphabet with values
// from a tiny vocabulary, so repeated tags nest and predicates hit.
func nestedDoc(r *rand.Rand) string {
	tags := []string{"a", "b", "c", "d"}
	words := []string{"xml", "search", "1", "2"}
	var b strings.Builder
	var build func(depth int)
	build = func(depth int) {
		tag := tags[r.Intn(len(tags))]
		fmt.Fprintf(&b, "<%s>", tag)
		if depth <= 0 || r.Intn(3) == 0 {
			b.WriteString(words[r.Intn(len(words))])
		} else {
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				build(depth - 1)
			}
		}
		fmt.Fprintf(&b, "</%s>", tag)
	}
	b.WriteString("<r>")
	for i, n := 0, 2+r.Intn(4); i < n; i++ {
		build(2 + r.Intn(3))
	}
	b.WriteString("</r>")
	return b.String()
}

func qptsOf(t testing.TB, view string) []*qpt.QPT {
	t.Helper()
	q, err := xq.Parse(view)
	if err != nil {
		t.Fatal(err)
	}
	qpts, err := qpt.Generate(q.Body, q.Functions)
	if err != nil {
		t.Fatal(err)
	}
	return qpts
}

// elementsOf reads a pruned tree back into the element list BuildPruned
// takes, shuffled so that nothing of the tree's order survives.
func elementsOf(r *rand.Rand, p *pdt.PDT) []*pdt.Element {
	var out []*pdt.Element
	if p.Doc == nil {
		return nil
	}
	p.Doc.Root.Walk(func(n *xmltree.Node) {
		e := &pdt.Element{ID: n.ID, Tag: n.Tag, Value: n.Value, HasValue: n.Value != "", NeedV: n.Value != "", ByteLen: n.ByteLen}
		if n.Meta != nil {
			e.NeedC, e.TFs = true, n.Meta.TFs
		}
		out = append(out, e)
	})
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mustEqualTrees compares two pruned documents node for node: identity,
// value, Meta payload and child order. (A node's own ByteLen is compared on
// Meta nodes only: the generator knows it for elements that came off a
// list, the reference for every element.)
func mustEqualTrees(t *testing.T, label string, got, want *pdt.PDT) {
	t.Helper()
	if got.Nodes != want.Nodes || got.Bytes != want.Bytes || (got.Doc == nil) != (want.Doc == nil) {
		t.Fatalf("%s: %d nodes / %d bytes / doc %v, want %d / %d / %v",
			label, got.Nodes, got.Bytes, got.Doc != nil, want.Nodes, want.Bytes, want.Doc != nil)
	}
	if got.Doc == nil {
		return
	}
	visited := 0
	var walk func(g, w *xmltree.Node)
	walk = func(g, w *xmltree.Node) {
		visited++
		if !dewey.Equal(g.ID, w.ID) || g.Tag != w.Tag || g.Value != w.Value {
			t.Fatalf("%s: node %s <%s> %q, want %s <%s> %q", label, g.ID, g.Tag, g.Value, w.ID, w.Tag, w.Value)
		}
		if (g.Meta == nil) != (w.Meta == nil) {
			t.Fatalf("%s: node %s Meta presence differs", label, g.ID)
		}
		if g.Meta != nil && (g.ByteLen != w.ByteLen || !slices.Equal(g.Meta.TFs, w.Meta.TFs)) {
			t.Fatalf("%s: node %s len %d Meta %+v, want %d %+v", label, g.ID, g.ByteLen, *g.Meta, w.ByteLen, *w.Meta)
		}
		if len(g.Children) != len(w.Children) {
			t.Fatalf("%s: node %s has %d children, want %d", label, g.ID, len(g.Children), len(w.Children))
		}
		for i := range g.Children {
			walk(g.Children[i], w.Children[i])
		}
	}
	walk(got.Doc.Root, want.Doc.Root)
	if visited != got.Nodes {
		t.Fatalf("%s: tree holds %d nodes, PDT reports %d", label, visited, got.Nodes)
	}
}

// TestEmissionOrderIsDocumentOrder: over generated documents and the QPTs
// of testkit.EqViews plus orderViews, the tree Generate places by sequence
// number equals the one BuildPruned sorts together from the element set of
// the Definitions 1-3 reference.
func TestEmissionOrderIsDocumentOrder(t *testing.T) {
	keywords := []string{"copper", "xml", "1"}
	type source struct {
		name string
		gen  func(r *rand.Rand, i int) string
	}
	parts := source{"part-00.xml", func(r *rand.Rand, i int) string { return testkit.RandomPartDoc(r, i) }}
	authors := source{"authors.xml", func(r *rand.Rand, _ int) string { return testkit.AuthorsXML(r) }}
	nested := source{"r.xml", func(r *rand.Rand, _ int) string { return nestedDoc(r) }}
	runs := 0
	check := func(view string, srcOf func(q *qpt.QPT) source) {
		for qi, q := range qptsOf(t, view) {
			src := srcOf(q)
			for seed := int64(0); seed < 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				doc, err := xmltree.ParseString(src.gen(r, int(seed)), src.name, 1)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("view %q qpt %d seed %d", view, qi, seed)
				pix, iix := pathindex.Build(doc), invindex.Build(doc)
				for _, kws := range [][]string{nil, keywords} {
					lists := pdt.PrepareLists(q, pix, iix, kws)
					got := pdt.Generate(q, lists, doc.Name)
					want := pdt.BuildPruned(elementsOf(r, pdt.Reference(q, doc, kws)), doc.Name)
					mustEqualTrees(t, label, got, want)
					runs++
				}
			}
		}
	}
	for _, view := range testkit.EqViews {
		check(view, func(q *qpt.QPT) source {
			if q.Doc == authors.name {
				return authors
			}
			return parts
		})
	}
	for _, view := range orderViews {
		check(view, func(*qpt.QPT) source { return nested })
	}
	if runs == 0 {
		t.Fatal("no runs")
	}
}
