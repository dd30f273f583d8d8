package core

import (
	"strings"
	"testing"

	"vxml/internal/store"
	"vxml/internal/xq"
)

const booksXML = `<books>
  <book><isbn>111-11-1111</isbn><title>XML Web Services</title><year>2004</year></book>
  <book><isbn>222-22-2222</isbn><title>Artificial Intelligence</title><year>2002</year></book>
  <book><isbn>333-33-3333</isbn><title>Old Scrolls</title><year>1990</year></book>
  <book><isbn>444-44-4444</isbn><title>Search Systems</title><year>2001</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111-11-1111</isbn><content>all about search engines</content></review>
  <review><isbn>111-11-1111</isbn><content>easy to read</content></review>
  <review><isbn>222-22-2222</isbn><content>classic xml search text</content></review>
  <review><isbn>444-44-4444</isbn><content>great xml coverage</content></review>
  <review><content>orphan note</content></review>
</reviews>`

const figure2View = `
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <bookrevs>
         <book> {$book/title} </book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

func TestSearchFigure2(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.Search(v, []string{"XML", "Search"}, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Books 1 (xml in title + search in review), 2 (xml+search in review)
	// and 4 (search in title + xml in review) match conjunctively.
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for i, r := range results {
		if r.Rank != i+1 {
			t.Errorf("rank[%d] = %d", i, r.Rank)
		}
		if r.Score <= 0 {
			t.Errorf("score[%d] = %f", i, r.Score)
		}
		if r.Element == nil || r.Element.Tag != "bookrevs" {
			t.Fatalf("element[%d] = %+v", i, r.Element)
		}
	}
	if stats.ViewSize != 3 {
		// view has 3 books passing year > 1995... books 1,2,4
		t.Errorf("ViewResults = %d", stats.ViewSize)
	}
	if stats.PDTNodes == 0 {
		t.Error("PDT stats missing")
	}
	// Materialized results contain full review text fetched from storage.
	text := results[0].Element.XMLString("")
	if !strings.Contains(text, "title") {
		t.Errorf("materialized result missing title: %s", text)
	}
}

func engineWithBooks(t *testing.T) *Engine {
	t.Helper()
	e := emptyEngine()
	if err := e.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if err := e.AddXML("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSearchConjunctiveVsDisjunctive(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	conj, _, err := e.Search(v, []string{"xml", "read"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	disj, _, err := e.Search(v, []string{"xml", "read"}, Options{Disjunctive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(conj) >= len(disj) && len(disj) > 0 && len(conj) > 0 {
		// conjunctive must be a subset
		if len(conj) > len(disj) {
			t.Errorf("conjunctive (%d) larger than disjunctive (%d)", len(conj), len(disj))
		}
	}
	if len(disj) == 0 {
		t.Error("disjunctive query should match")
	}
}

func TestSearchTopK(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := e.Search(v, []string{"xml"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Skipf("need at least 2 matches, got %d", len(all))
	}
	top1, stats, err := e.Search(v, []string{"xml"}, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) != 1 {
		t.Fatalf("top-1 = %d results", len(top1))
	}
	if top1[0].Score != all[0].Score {
		t.Errorf("top-1 score %f != best score %f", top1[0].Score, all[0].Score)
	}
	if stats.BaseData == 0 {
		t.Error("expected materialization fetches for the winner")
	}
}

func TestSplitKeywordQuery(t *testing.T) {
	full := `
let $view := ` + figure2View + `
for $r in $view
where $r ftcontains('XML' & 'Search')
return $r`
	q, err := xq.Parse(full)
	if err != nil {
		t.Fatal(err)
	}
	kq, err := SplitKeywordQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(kq.Keywords) != 2 || kq.Keywords[0] != "xml" {
		t.Errorf("keywords = %v", kq.Keywords)
	}
	if !kq.Conjunctive {
		t.Error("expected conjunctive")
	}
	if _, ok := kq.ViewExpr.(*xq.FLWORExpr); !ok {
		t.Errorf("view expr = %T", kq.ViewExpr)
	}
}

func TestSplitKeywordQueryErrors(t *testing.T) {
	bad := []string{
		"fn:doc(a.xml)/x",                                                           // not a FLWOR
		"for $r in fn:doc(a.xml)/x return $r",                                       // no ftcontains
		"for $r in $v where $r ftcontains('k') return $r/x",                         // return not the var
		"let $v := fn:doc(a.xml)/x for $r in $w where $r ftcontains('k') return $r", // unbound view var
	}
	for _, in := range bad {
		q, err := xq.Parse(in)
		if err != nil {
			continue
		}
		if _, err := SplitKeywordQuery(q); err == nil {
			t.Errorf("SplitKeywordQuery(%q): expected error", in)
		}
	}
}

func TestCompileViewErrors(t *testing.T) {
	e := engineWithBooks(t)
	if _, err := e.CompileView("for $b in fn:doc(missing.xml)/a return $b"); err == nil {
		t.Error("unknown document should fail compilation")
	}
	if _, err := e.CompileView("not a query ["); err == nil {
		t.Error("parse error should propagate")
	}
}

func TestSelectionViewSearch(t *testing.T) {
	// A pure selection view (nesting level 1, zero joins).
	e := engineWithBooks(t)
	v, err := e.CompileView(`
for $b in fn:doc(books.xml)/books//book
where $b/year > 1995
return $b`)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := e.Search(v, []string{"xml"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Element.Tag != "book" {
		t.Errorf("tag = %s", results[0].Element.Tag)
	}
	// Fully materialized: publisher etc. come back from storage.
	if !strings.Contains(results[0].Element.XMLString(""), "XML Web Services") {
		t.Errorf("materialization incomplete: %s", results[0].Element.XMLString(""))
	}
}

func emptyEngine() *Engine {
	return New(store.New())
}
