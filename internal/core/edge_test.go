package core

import (
	"strings"
	"testing"
)

// TestEmptyPDTForOneSource: when one source document yields no qualifying
// elements, the view still evaluates (the join side is simply empty).
func TestEmptyPDTForOneSource(t *testing.T) {
	e := emptyEngine()
	if err := e.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	// reviews exist but none has an isbn: mandatory edge empties the PDT
	if err := e.AddXML("reviews.xml",
		`<reviews><review><content>no isbn here xml</content></review></reviews>`); err != nil {
		t.Fatal(err)
	}
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.Search(v, []string{"xml"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Books with "xml" in their own content still match (title), with no
	// nested reviews.
	for _, r := range results {
		if strings.Contains(r.Element.XMLString(""), "<content>") {
			t.Errorf("orphan review leaked into %s", r.Element.XMLString(""))
		}
	}
	if stats.ViewSize == 0 {
		t.Error("view should still produce book records")
	}
}

// TestNoKeywordMatchesAnywhere: keywords absent from the corpus yield an
// empty result but a well-formed response.
func TestNoKeywordMatchesAnywhere(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.Search(v, []string{"zzzznope"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || stats.Matched != 0 {
		t.Errorf("expected no results, got %d", len(results))
	}
	if stats.BaseData != 0 {
		t.Error("no winners => no base-data access")
	}
}

// TestEmptyKeywordListReturnsAllViewResults: with no keywords every view
// result matches (vacuous conjunction), scored zero.
func TestEmptyKeywordList(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.Search(v, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != stats.ViewSize {
		t.Errorf("all view results should match: %d vs %d", len(results), stats.ViewSize)
	}
}

// TestSnippetOnResults: winners carry keyword-in-context excerpts.
func TestSnippetOnResults(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := e.Search(v, []string{"search"}, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	if !strings.Contains(strings.ToLower(results[0].Snippet), "search") {
		t.Errorf("snippet = %q", results[0].Snippet)
	}
}

// TestRepeatedSearchesAreStable: the engine has no per-search state leaks.
func TestRepeatedSearchesAreStable(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 5; i++ {
		results, _, err := e.Search(v, []string{"xml", "search"}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r.Element.XMLString(""))
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("search %d returned different results", i)
		}
	}
}

// TestAddDocumentAfterView: documents added after view compilation are
// visible to subsequent searches through their indices.
func TestAddDocumentAfterCompile(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := e.Search(v, []string{"xml"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// adding an unrelated document must not disturb results
	if err := e.AddXML("extra.xml", `<extra><x>xml xml xml</x></extra>`); err != nil {
		t.Fatal(err)
	}
	after, _, err := e.Search(v, []string{"xml"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Errorf("unrelated document changed results: %d vs %d", len(before), len(after))
	}
}
