package xqeval

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

const booksXML = `<books>
  <book><isbn>111-11-1111</isbn><title>XML Web Services</title><publisher>Prentice Hall</publisher><year>2004</year></book>
  <book><isbn>222-22-2222</isbn><title>Artificial Intelligence</title><publisher>Prentice Hall</publisher><year>2002</year></book>
  <book><isbn>333-33-3333</isbn><title>Old Compilers</title><publisher>Ancient Press</publisher><year>1990</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111-11-1111</isbn><rate>Excellent</rate><content>all about search</content><reviewer>John</reviewer></review>
  <review><isbn>111-11-1111</isbn><rate>Good</rate><content>easy to read</content><reviewer>Alex</reviewer></review>
  <review><isbn>222-22-2222</isbn><rate>Fair</rate><content>dated but solid</content><reviewer>Mary</reviewer></review>
  <review><isbn>999-99-9999</isbn><rate>Poor</rate><content>orphan review</content><reviewer>Sam</reviewer></review>
</reviews>`

func catalog(t *testing.T) MapCatalog {
	t.Helper()
	books, err := xmltree.ParseString(booksXML, "books.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	reviews, err := xmltree.ParseString(reviewsXML, "reviews.xml", 2)
	if err != nil {
		t.Fatal(err)
	}
	return MapCatalog{"books.xml": books, "reviews.xml": reviews}
}

func eval(t *testing.T, cat Catalog, query string) []Item {
	t.Helper()
	q, err := xq.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ev := New(cat, q.Functions)
	out, err := ev.EvalQuery(q)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return out
}

func values(items []Item) []string {
	var out []string
	for _, it := range items {
		out = append(out, Atomize(it))
	}
	return out
}

func TestPathNavigation(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, "fn:doc(books.xml)/books/book/title")
	if len(out) != 3 {
		t.Fatalf("titles = %v", values(out))
	}
	if Atomize(out[0]) != "XML Web Services" {
		t.Errorf("first title = %q", Atomize(out[0]))
	}
	// descendant axis
	out = eval(t, cat, "fn:doc(books.xml)//isbn")
	if len(out) != 3 {
		t.Errorf("//isbn = %v", values(out))
	}
	// missing path
	if out := eval(t, cat, "fn:doc(books.xml)/books/missing"); len(out) != 0 {
		t.Errorf("missing path = %v", values(out))
	}
	// unknown doc evaluates to empty
	if out := eval(t, cat, "fn:doc(nope.xml)/a"); len(out) != 0 {
		t.Errorf("unknown doc = %v", values(out))
	}
}

func TestFilterPredicates(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, "fn:doc(books.xml)/books/book[year > 1995]/title")
	got := values(out)
	if len(got) != 2 || got[0] != "XML Web Services" || got[1] != "Artificial Intelligence" {
		t.Errorf("filtered titles = %v", got)
	}
	// existence predicate
	out = eval(t, cat, "fn:doc(reviews.xml)/reviews/review[reviewer]/rate")
	if len(out) != 4 {
		t.Errorf("existence pred = %v", values(out))
	}
	// equality on string
	out = eval(t, cat, "fn:doc(reviews.xml)/reviews/review[reviewer = 'John']/content")
	if len(out) != 1 || Atomize(out[0]) != "all about search" {
		t.Errorf("string eq = %v", values(out))
	}
}

func TestFLWORWithWhere(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, `
for $b in fn:doc(books.xml)/books/book
where $b/year > 1995
return $b/isbn`)
	got := values(out)
	if len(got) != 2 || got[0] != "111-11-1111" {
		t.Errorf("isbns = %v", got)
	}
}

func TestLetClause(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, `
let $all := fn:doc(books.xml)/books/book
for $b in $all
where $b/year > 2003
return $b/title`)
	if len(out) != 1 || Atomize(out[0]) != "XML Web Services" {
		t.Errorf("let = %v", values(out))
	}
}

func TestJoinNestedFLWOR(t *testing.T) {
	cat := catalog(t)
	query := `
for $b in fn:doc(books.xml)/books/book
return <entry>
  <t>{$b/title}</t>
  {for $r in fn:doc(reviews.xml)/reviews/review
   where $r/isbn = $b/isbn
   return $r/content}
</entry>`
	for _, hashJoin := range []bool{true, false} {
		q := xq.MustParse(query)
		ev := New(cat, q.Functions)
		ev.HashJoin = hashJoin
		out, err := ev.EvalQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 3 {
			t.Fatalf("hashJoin=%v: %d entries", hashJoin, len(out))
		}
		first := out[0].(*xmltree.Node)
		// title child + 2 joined review contents
		if len(first.Children) != 3 {
			t.Errorf("hashJoin=%v: first entry children = %d", hashJoin, len(first.Children))
		}
		third := out[2].(*xmltree.Node)
		if len(third.Children) != 1 { // no reviews for book 3
			t.Errorf("hashJoin=%v: third entry children = %d", hashJoin, len(third.Children))
		}
		if hashJoin && ev.JoinProbes == 0 {
			t.Error("hash join was not exercised")
		}
	}
}

// TestJoinResultsIdenticalWithAndWithoutHashJoin: the hash join matches
// what the nested loop's pred.Compare matches, numeric keys by value
// included — 07 = 7 and -0 = 0, while nan equals nothing, itself
// included.
func TestJoinResultsIdenticalWithAndWithoutHashJoin(t *testing.T) {
	numeric := func(t *testing.T) MapCatalog {
		xs, err := xmltree.ParseString(`<xs><x><k>07</k></x><x><k>-0</k></x><x><k>nan</k></x><x><k>7x</k></x></xs>`, "x.xml", 1)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := xmltree.ParseString(`<ys><y><k>7</k><v>seven</v></y><y><k>0</k><v>zero</v></y><y><k>nan</k><v>nan</v></y><y><k>7.0x</k><v>spelt</v></y></ys>`, "y.xml", 2)
		if err != nil {
			t.Fatal(err)
		}
		return MapCatalog{"x.xml": xs, "y.xml": ys}
	}
	for _, c := range []struct {
		name    string
		catalog func(*testing.T) MapCatalog
		query   string
		want    string // "" = only compare the two paths
	}{
		{"isbn", catalog, `
for $b in fn:doc(books.xml)/books/book
return <e>{$b/isbn}
  {for $r in fn:doc(reviews.xml)/reviews/review
   where $b/isbn = $r/isbn
   return $r/rate}
</e>`, ""},
		{"numeric keys", numeric, `
for $x in fn:doc(x.xml)/xs/x
return <e>{for $y in fn:doc(y.xml)/ys/y
   where $x/k = $y/k
   return $y/v}</e>`, "<e><v>seven</v></e><e><v>zero</v></e><e></e><e></e>"},
	} {
		render := func(hash bool) string {
			q := xq.MustParse(c.query)
			ev := New(c.catalog(t), q.Functions)
			ev.HashJoin = hash
			out, err := ev.EvalQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if hash && ev.JoinProbes == 0 {
				t.Errorf("%s: hash join was not exercised", c.name)
			}
			var b strings.Builder
			for _, item := range out {
				item.(*xmltree.Node).WriteXML(&b, "") //nolint:errcheck
			}
			return b.String()
		}
		hash, loop := render(true), render(false)
		if hash != loop {
			t.Errorf("%s: hash join changed results:\n%s\nvs\n%s", c.name, hash, loop)
		}
		if c.want != "" && loop != c.want {
			t.Errorf("%s: nested loop = %s, want %s", c.name, loop, c.want)
		}
	}
}

func TestElementConstructorReferencesNotCopies(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, "for $b in fn:doc(books.xml)/books/book return <w>{$b/title}</w>")
	w := out[0].(*xmltree.Node)
	title := w.Children[0]
	// The referenced node must be the base document node itself (provenance).
	base := cat["books.xml"].FindByID(title.ID)
	if base != title {
		t.Error("constructor should reference base nodes, not copies")
	}
}

func TestCondExpr(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, `
for $b in fn:doc(books.xml)/books/book
return if $b/year > 2000 then $b/title else $b/isbn`)
	got := values(out)
	want := []string{"XML Web Services", "Artificial Intelligence", "333-33-3333"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cond[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFunctionCall(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, `
declare function revsFor($isbn) {
  for $r in fn:doc(reviews.xml)/reviews/review
  where $r/isbn = $isbn
  return $r/content
}
for $b in fn:doc(books.xml)/books/book
where $b/year > 2003
return revsFor($b/isbn)`)
	got := values(out)
	if len(got) != 2 || got[0] != "all about search" {
		t.Errorf("function call = %v", got)
	}
}

func TestFTContains(t *testing.T) {
	cat := catalog(t)
	// conjunctive over constructed view elements
	out := eval(t, cat, `
let $view := for $r in fn:doc(reviews.xml)/reviews/review return <rev>{$r/content}</rev>
for $v in $view
where $v ftcontains('about' & 'search')
return $v`)
	if len(out) != 1 {
		t.Fatalf("conjunctive ftcontains = %d results", len(out))
	}
	out = eval(t, cat, `
let $view := for $r in fn:doc(reviews.xml)/reviews/review return <rev>{$r/content}</rev>
for $v in $view
where $v ftcontains('search' | 'read')
return $v`)
	if len(out) != 2 {
		t.Fatalf("disjunctive ftcontains = %d results", len(out))
	}
}

func TestSequenceAndEmptySequence(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, "for $b in fn:doc(books.xml)/books/book where $b/year > 2003 return $b/title, $b/year")
	// sequence return yields title, year per binding
	if got := values(out); len(got) != 2 || got[1] != "2004" {
		t.Errorf("sequence return = %v", got)
	}
	if out := eval(t, cat, "()"); len(out) != 0 {
		t.Errorf("() = %v", values(out))
	}
}

func TestErrors(t *testing.T) {
	cat := catalog(t)
	for _, bad := range []string{
		"$undefined",
		"unknownFn($x)",
		"for $x in fn:doc(books.xml)/books return unknownFn($x)",
	} {
		q, err := xq.Parse(bad)
		if err != nil {
			continue // parse errors also acceptable
		}
		ev := New(cat, q.Functions)
		if _, err := ev.EvalQuery(q); err == nil {
			t.Errorf("eval(%q): expected error", bad)
		}
	}
}

func TestDescendantDedup(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><a><x>1</x></a><x>2</x></a></r>`, "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := MapCatalog{"r.xml": doc}
	out := eval(t, cat, "fn:doc(r.xml)//a//x")
	// x=1 reachable from both a elements; must be deduplicated
	if len(out) != 2 {
		t.Errorf("//a//x = %v", values(out))
	}
}

func TestFigure2EndToEnd(t *testing.T) {
	cat := catalog(t)
	out := eval(t, cat, `
let $view :=
  for $book in fn:doc(books.xml)/books//book
  where $book/year > 1995
  return <bookrevs>
           <book> {$book/title} </book>,
           {for $rev in fn:doc(reviews.xml)/reviews//review
            where $rev/isbn = $book/isbn
            return $rev/content}
         </bookrevs>
for $bookrev in $view
where $bookrev ftcontains('XML' & 'Search')
return $bookrev`)
	// Only the first book's element contains both: "XML" (title) and
	// "search" (review content).
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	res := out[0].(*xmltree.Node)
	if res.Tag != "bookrevs" {
		t.Errorf("result tag = %q", res.Tag)
	}
	var text []string
	res.Walk(func(n *xmltree.Node) {
		if n.Value != "" {
			text = append(text, n.Value)
		}
	})
	joined := strings.Join(text, " ")
	if !strings.Contains(joined, "XML Web Services") || !strings.Contains(joined, "all about search") {
		t.Errorf("result text = %q", joined)
	}
}

// TestEvalUnitKeepsSideJoins runs collection views one unit document at a
// time, as core's per-document pass does: one evaluator, its catalog
// holding the unit's document plus a shared side document, EvalUnit per
// unit. Three things must hold: no unit's document node is cached — the
// unit binds the evaluator's own (UnitNode) — a side join index is built
// once and reused, and every unit's output equals a fresh evaluator's. The
// first view's inner FLWOR is a hash join over the side document. The
// second has one clause, whose where compares with the side document: Eval
// would hash-join the unit's own reviews, an index no later unit may reuse.
// The third hash-joins elements it constructs, which the kept index then
// holds from unit to unit (KeepsConstructed), where the first's holds the
// side document's own.
func TestEvalUnitKeepsSideJoins(t *testing.T) {
	for _, tc := range []struct {
		view            string
		indices, probes int
		constructed     bool
	}{
		{`for $r in fn:collection("rev-*")/reviews/review
			return <r>{$r/rate}, {for $b in fn:doc(books.xml)/books/book where $b/isbn = $r/isbn return $b/title}</r>`, 1, 4, false},
		{`for $r in fn:collection("rev-*")/reviews/review
			where $r/isbn = fn:doc(books.xml)/books/book/isbn return $r/rate`, 0, 0, false},
		{`for $r in fn:collection("rev-*")/reviews/review
			return <r>{for $b in (for $x in fn:doc(books.xml)/books/book return <w>{$x/isbn}, {$x/title}</w>) where $b/isbn = $r/isbn return $b}</r>`, 1, 4, true},
	} {
		q, err := xq.Parse(tc.view)
		if err != nil {
			t.Fatal(err)
		}
		fl := q.Body.(*xq.FLWORExpr)
		cat := MapCatalog{"books.xml": catalog(t)["books.xml"]}
		ev := New(cat, q.Functions)
		var prev *xmltree.Document
		var index *joinIndex
		for i, isbn := range []string{"111-11-1111", "222-22-2222", "999-99-9999", "111-11-1111"} {
			unit, err := xmltree.ParseString(`<reviews><review><isbn>`+isbn+`</isbn><rate>r`+isbn[:1]+`</rate></review></reviews>`,
				fmt.Sprintf("rev-%d.xml", i), int32(10+i))
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				delete(cat, prev.Name)
			}
			cat[unit.Name] = unit
			got, err := ev.EvalUnit(fl, unit)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(cat, q.Functions).Eval(q.Body, nil)
			if err != nil {
				t.Fatal(err)
			}
			items := make([]Item, len(got))
			for j, n := range got {
				items[j] = n
			}
			if g, w := show(items), show(want); g != w || cap(got) != len(got) {
				t.Fatalf("unit %d: got %s (capacity %d), a fresh evaluator gives %s", i, g, cap(got), w)
			}
			if _, cached := ev.docNodes[unit]; cached || len(ev.docNodes) != 1 {
				t.Fatalf("unit %d: %d document nodes cached, the unit's among them = %v", i, len(ev.docNodes), cached)
			}
			if un := ev.UnitNode(); len(un.Children) != 1 || un.Children[0] != unit.Root {
				t.Fatalf("unit %d: the unit's document node is not over its root", i)
			}
			var built []*joinIndex
			for _, jp := range ev.joins {
				if jp.index != nil {
					built = append(built, jp.index)
				}
			}
			if len(built) != tc.indices || (index != nil && built[0] != index) {
				t.Fatalf("unit %d: join indices %v, want %d, the first unit's %p", i, built, tc.indices, index)
			}
			if len(built) > 0 {
				index = built[0]
			}
			if ev.KeepsConstructed() != tc.constructed {
				t.Fatalf("unit %d: KeepsConstructed is %v", i, !tc.constructed)
			}
			prev = unit
		}
		if ev.JoinProbes != tc.probes {
			t.Fatalf("%d join probes, want %d", ev.JoinProbes, tc.probes)
		}
	}
}

// TestChildStepsSkipPrunedAncestors: a PDT links an element to its closest
// emitted ancestor, so over `<b><a><b><x/></b></a></b>` pruned to its b and
// x elements the inner b hangs under the outer one. A child step follows
// Dewey levels, not the pruned tree: the outer b has no b child and no x
// child, the inner b has its x, and below the document node only the root
// is a child.
func TestChildStepsSkipPrunedAncestors(t *testing.T) {
	x := &xmltree.Node{Tag: "x", Value: "copper", ID: []int32{1, 0, 0, 0}}
	inner := &xmltree.Node{Tag: "b", ID: []int32{1, 0, 0}, Children: []*xmltree.Node{x}}
	outer := &xmltree.Node{Tag: "b", ID: []int32{1}, Children: []*xmltree.Node{inner}}
	pruned := MapCatalog{"d.xml": &xmltree.Document{Name: "d.xml", DocID: 1, Root: outer}}
	for query, want := range map[string]int{
		"fn:doc(d.xml)/b":     1,
		"fn:doc(d.xml)/b/b":   0,
		"fn:doc(d.xml)/b/b/x": 0,
		"fn:doc(d.xml)//b":    2,
		"fn:doc(d.xml)//b/x":  1,
		"fn:doc(d.xml)/b//x":  1,
	} {
		if got := eval(t, pruned, query); len(got) != want {
			t.Errorf("%s: %d items, want %d", query, len(got), want)
		}
	}
	deep := MapCatalog{"d.xml": &xmltree.Document{Name: "d.xml", DocID: 1, Root: inner}}
	if got := eval(t, deep, "fn:doc(d.xml)/b"); len(got) != 0 {
		t.Errorf("a pruned document's only element, two levels down, is a child of the document node")
	}
}
