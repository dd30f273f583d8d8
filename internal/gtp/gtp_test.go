package gtp

import (
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/store"
)

const booksXML = `<books>
  <book><isbn>111</isbn><title>XML Views</title><year>2004</year></book>
  <book><isbn>222</isbn><title>Query Engines</title><year>1990</year></book>
  <book><isbn>333</isbn><title>Search Papers</title><year>2001</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111</isbn><content>great search coverage</content></review>
  <review><isbn>333</isbn><content>all about xml</content></review>
  <review><content>orphan</content></review>
</reviews>`

const viewText = `
for $b in fn:doc(books.xml)/books//book
where $b/year > 1995
return <e>{$b/title},
  {for $r in fn:doc(reviews.xml)/reviews//review
   where $r/isbn = $b/isbn
   return $r/content}
</e>`

func engine(t *testing.T) (*core.Engine, *core.View) {
	t.Helper()
	st := store.New()
	if _, err := st.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddXML("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	e := core.New(st)
	v, err := e.CompileView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	return e, v
}

func TestGTPSearchMatchesEfficient(t *testing.T) {
	e, v := engine(t)
	g, gstats, err := Search(e, v, []string{"xml", "search"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eff, _, err := e.Search(v, []string{"xml", "search"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != len(eff) {
		t.Fatalf("gtp %d results, efficient %d", len(g), len(eff))
	}
	for i := range g {
		if g[i].Score != eff[i].Score {
			t.Errorf("score[%d]: %f vs %f", i, g[i].Score, eff[i].Score)
		}
		if g[i].Element.XMLString("") != eff[i].Element.XMLString("") {
			t.Errorf("result[%d] differs", i)
		}
	}
	if gstats.TagListEntries == 0 || gstats.IntermediatePairs == 0 {
		t.Errorf("structural join stats empty: %+v", gstats)
	}
}

func TestGTPAccessesBaseDataForPredicatesAndValues(t *testing.T) {
	e, v := engine(t)
	_, stats, err := Search(e, v, []string{"xml"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// year predicate (3 books) + isbn join values on both sides.
	if stats.BaseValueFetches < 6 {
		t.Errorf("BaseValueFetches = %d, expected predicate + join-value accesses", stats.BaseValueFetches)
	}
}

func TestGTPPhaseTimings(t *testing.T) {
	e, v := engine(t)
	_, stats, err := Search(e, v, []string{"xml"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PDTTime <= 0 || stats.Total != stats.PDTTime+stats.EvalTime+stats.PostTime {
		t.Errorf("timings not recorded: %+v", stats)
	}
}

func TestGTPTopKAndDisjunctive(t *testing.T) {
	e, v := engine(t)
	all, _, err := Search(e, v, []string{"xml", "search"}, core.Options{Disjunctive: true})
	if err != nil {
		t.Fatal(err)
	}
	top1, _, err := Search(e, v, []string{"xml", "search"}, core.Options{Disjunctive: true, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) != 1 || len(all) < len(top1) {
		t.Errorf("topK: all=%d top1=%d", len(all), len(top1))
	}
	if top1[0].Score != all[0].Score {
		t.Errorf("top-1 score mismatch")
	}
}

func TestGTPMaterializesWinners(t *testing.T) {
	e, v := engine(t)
	results, _, err := Search(e, v, []string{"coverage"}, core.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if !strings.Contains(results[0].Element.XMLString(""), "great search coverage") {
		t.Errorf("winner not materialized: %s", results[0].Element.XMLString(""))
	}
}
