package baseline

import (
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/store"
)

const booksXML = `<books>
  <book><isbn>111</isbn><title>XML Views</title><year>2004</year></book>
  <book><isbn>222</isbn><title>Old Almanac</title><year>1990</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111</isbn><content>search inside</content></review>
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

func TestBaselineSearch(t *testing.T) {
	e, v := engine(t)
	results, stats, err := Search(e, v, []string{"xml", "search"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if !strings.Contains(results[0].Element.XMLString(""), "search inside") {
		t.Errorf("result = %s", results[0].Element.XMLString(""))
	}
	if stats.ViewSize != 1 || stats.Matched != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.EvalTime <= 0 || stats.Total != stats.EvalTime+stats.PostTime {
		t.Error("materialization not timed")
	}
	// Materialization produced the serialized view.
	if stats.MaterializedBytes == 0 {
		t.Error("MaterializedBytes = 0; baseline must write out the view")
	}
}

func TestBaselineMatchesEfficientScores(t *testing.T) {
	e, v := engine(t)
	base, _, err := Search(e, v, []string{"xml"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eff, _, err := e.Search(v, []string{"xml"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(eff) {
		t.Fatalf("baseline %d vs efficient %d", len(base), len(eff))
	}
	for i := range base {
		if base[i].Score != eff[i].Score {
			t.Errorf("score[%d]: %f vs %f", i, base[i].Score, eff[i].Score)
		}
	}
}

func TestBaselineNoMatches(t *testing.T) {
	e, v := engine(t)
	results, stats, err := Search(e, v, []string{"nonexistentword"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || stats.Matched != 0 {
		t.Errorf("expected no matches, got %d", len(results))
	}
	if stats.ViewSize != 1 {
		t.Errorf("view still has %d results", stats.ViewSize)
	}
}
