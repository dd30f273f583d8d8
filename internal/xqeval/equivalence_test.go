// The hash-join fast path and the single-base step path must not be
// observable: every view evaluates to the identical item sequence with
// HashJoin on and off (the nested-loop path never reaches the join plan),
// and three targeted cases pin the dedupe and ordering semantics the fast
// paths could break. External test package: testkit imports the root
// package, which imports xqeval.
package xqeval_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vxml/internal/testkit"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// The four view shapes of the benchmark's direct_join workload (bench/gen.go).
var directJoinViews = []string{
	`for $a in fn:doc(inex.xml)/books//article
	 where $a/fm/yr > 1995
	 return <art>{$a/fm/tl}, {$a/bdy}</art>`,

	`for $au in fn:doc(authors.xml)/authors//author
	 return <arec><aname>{$au/name}</aname>,
	   {for $a in fn:doc(inex.xml)/books//article
	    where $a/fm/au = $au/name
	    return <art>{$a/fm/tl}, {$a/bdy}</art>}</arec>`,

	`for $f in fn:doc(affils.xml)/affils//affil
	 return <frec><inst>{$f/instname}</inst>,
	   {for $au in fn:doc(authors.xml)/authors//author
	    where $au/affid = $f/affid
	    return <arec><aname>{$au/name}</aname>,
	      {for $a in fn:doc(inex.xml)/books//article
	       where $a/fm/au = $au/name
	       return <art>{$a/fm/tl}, {$a/bdy}</art>}</arec>}</frec>`,

	`for $au in fn:doc(authors.xml)/authors//author
	 return <arec><aname>{$au/name}</aname>,
	   {for $f in fn:doc(affils.xml)/affils//affil
	    where $f/affid = $au/affid
	    return <inst>{$f/instname}</inst>},
	   {for $a in fn:doc(inex.xml)/books//article
	    where $a/fm/au = $au/name
	    return <art>{$a/fm/tl}, {$a/bdy},
	      {for $t in fn:doc(topics.xml)/topics//topic
	       where $t/tname = $a/fm/kwd
	       return <top>{$t/desc}</top>},
	      {for $v in fn:doc(venues.xml)/venues//venue
	       where $v/vid = $a/vid
	       return <ven>{$v/vname}</ven>}</art>}</arec>`,
}

func mustParseDoc(t testing.TB, text, name string, id int32) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(text, name, id)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// directJoinCatalog builds a small corpus of the direct_join shape. Join
// keys are multi-valued on purpose: an article has one or two au (possibly
// the same author twice) and zero to two kwd.
func directJoinCatalog(t testing.TB, r *rand.Rand, articles int) xqeval.MapCatalog {
	const authors, affils, topics, venues = 7, 3, 4, 3
	var inex, au, af, tp, vn strings.Builder
	inex.WriteString("<books>")
	for i := 0; i < articles; i++ {
		fmt.Fprintf(&inex, "<article><fm><tl>title %d</tl>", i)
		for j, n := 0, 1+r.Intn(2); j < n; j++ {
			fmt.Fprintf(&inex, "<au>author%d</au>", r.Intn(authors+1)) // author7 matches nobody
		}
		for j, n := 0, r.Intn(3); j < n; j++ {
			fmt.Fprintf(&inex, "<kwd>topic%d</kwd>", r.Intn(topics))
		}
		fmt.Fprintf(&inex, "<yr>%d</yr></fm><vid>v%d</vid><bdy>body %d</bdy></article>", 1990+r.Intn(12), r.Intn(venues), i)
	}
	inex.WriteString("</books>")
	au.WriteString("<authors>")
	for i := 0; i < authors; i++ {
		fmt.Fprintf(&au, "<author><name>author%d</name><affid>f%d</affid></author>", i, r.Intn(affils))
	}
	au.WriteString("</authors>")
	af.WriteString("<affils>")
	for i := 0; i < affils; i++ {
		fmt.Fprintf(&af, "<affil><affid>f%d</affid><instname>inst %d</instname></affil>", i, i)
	}
	af.WriteString("</affils>")
	tp.WriteString("<topics>")
	for i := 0; i < topics; i++ {
		fmt.Fprintf(&tp, "<topic><tname>topic%d</tname><desc>about %d</desc></topic>", i, i)
	}
	tp.WriteString("</topics>")
	vn.WriteString("<venues>")
	for i := 0; i < venues; i++ {
		fmt.Fprintf(&vn, "<venue><vid>v%d</vid><vname>venue %d</vname></venue>", i, i)
	}
	vn.WriteString("</venues>")
	return xqeval.MapCatalog{
		"inex.xml":    mustParseDoc(t, inex.String(), "inex.xml", 1),
		"authors.xml": mustParseDoc(t, au.String(), "authors.xml", 2),
		"affils.xml":  mustParseDoc(t, af.String(), "affils.xml", 3),
		"topics.xml":  mustParseDoc(t, tp.String(), "topics.xml", 4),
		"venues.xml":  mustParseDoc(t, vn.String(), "venues.xml", 5),
	}
}

// eqCatalog is a testkit.EqViews corpus: part documents plus authors.xml.
func eqCatalog(t testing.TB, r *rand.Rand) xqeval.MapCatalog {
	cat := xqeval.MapCatalog{}
	for d := 0; d < 4; d++ {
		name := fmt.Sprintf("part-%02d.xml", d)
		cat[name] = mustParseDoc(t, testkit.RandomPartDoc(r, d), name, int32(d+1))
	}
	cat["authors.xml"] = mustParseDoc(t, testkit.AuthorsXML(r), "authors.xml", 9)
	return cat
}

// render spells an item sequence out with document nodes by identity (their
// Dewey IDs are unique across a catalog) and constructed elements by
// structure, so equal strings mean the same nodes in the same order.
func render(items []xqeval.Item) string {
	var b strings.Builder
	var node func(n *xmltree.Node)
	node = func(n *xmltree.Node) {
		if len(n.ID) > 0 {
			fmt.Fprintf(&b, "[%s %s]", n.Tag, n.ID)
			return
		}
		fmt.Fprintf(&b, "<%s %q>", n.Tag, n.Value)
		for _, c := range n.Children {
			node(c)
		}
		fmt.Fprintf(&b, "</%s>", n.Tag)
	}
	for _, item := range items {
		switch x := item.(type) {
		case *xmltree.Node:
			node(x)
		case string:
			fmt.Fprintf(&b, "%q", x)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func evalWith(t testing.TB, cat xqeval.Catalog, query string, hashJoin bool) string {
	t.Helper()
	q, err := xq.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	ev := xqeval.New(cat, q.Functions)
	ev.HashJoin = hashJoin
	out, err := ev.Eval(q.Body, nil)
	if err != nil {
		t.Fatalf("eval %q: %v", query, err)
	}
	return render(out)
}

func TestViewsIdenticalWithAndWithoutHashJoin(t *testing.T) {
	nonEmpty := map[string]bool{}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		suites := []struct {
			cat   xqeval.MapCatalog
			views []string
		}{
			{eqCatalog(t, r), testkit.EqViews},
			{directJoinCatalog(t, r, 30), directJoinViews},
		}
		for _, s := range suites {
			for _, view := range s.views {
				on, off := evalWith(t, s.cat, view, true), evalWith(t, s.cat, view, false)
				if on != off {
					t.Fatalf("seed %d view %q:\nhash join:\n%s\nnested loop:\n%s", seed, view, on, off)
				}
				nonEmpty[view] = nonEmpty[view] || on != ""
			}
		}
	}
	for _, view := range append(append([]string{}, testkit.EqViews...), directJoinViews...) {
		if !nonEmpty[view] {
			t.Errorf("view %q had no results on any corpus", view)
		}
	}
}

// TestStepAndProbeSemanticsPinned pins, by expected output, the three
// places where a fast path could change what the evaluator returns.
func TestStepAndProbeSemanticsPinned(t *testing.T) {
	cat := xqeval.MapCatalog{
		"d.xml": mustParseDoc(t, `<r><a><a><b>1</b></a><b>2</b></a><a><b>3</b></a></r>`, "d.xml", 1),
		"u.xml": mustParseDoc(t, `<us><u><n>k1</n><n>k2</n><v>first</v></u><u><n>k9</n><v>second</v></u><u><n>k2</n><n>k2</n><v>third</v></u></us>`, "u.xml", 2),
		"p.xml": mustParseDoc(t, `<ps><p><k>k2</k><k>k1</k><k>k2</k></p></ps>`, "p.xml", 3),
	}
	cases := []struct{ name, query, want string }{
		{
			// A constructed element that holds the same node twice, then a
			// child step: the single base is not a document node, so the step
			// still dedupes.
			"constructed element holding a node twice",
			`for $x in fn:doc(d.xml)/r/a
			 let $w := <w>{$x/b}, {$x/b}</w>
			 return $w/b`,
			"[b 1.1.2]\n[b 1.2.1]\n",
		},
		{
			// A multi-node base with nested matches: 1.1.1.1 is below both
			// the outer and the inner a; each b once, in encounter order.
			"nested matches under //a//b",
			`fn:doc(d.xml)//a//b`,
			"[b 1.1.1.1]\n[b 1.1.2]\n[b 1.2.1]\n",
		},
		{
			// The probe's keys (k2, k1, k2) hit the first u twice (both of
			// its names) and the third u through a repeated name: each once,
			// in the loop sequence's order, not the probes'.
			"probe keys hitting one loop item twice",
			`for $p in fn:doc(p.xml)/ps/p
			 return <o>{for $u in fn:doc(u.xml)/us/u where $u/n = $p/k return $u/v}</o>`,
			"<o \"\">[v 2.1.3][v 2.3.3]</o>\n",
		},
	}
	for _, c := range cases {
		for _, hashJoin := range []bool{true, false} {
			if got := evalWith(t, cat, c.query, hashJoin); got != c.want {
				t.Errorf("%s (hash join %v):\ngot  %q\nwant %q", c.name, hashJoin, got, c.want)
			}
		}
	}
}
