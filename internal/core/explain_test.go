package core

import (
	"strings"
	"testing"
)

func TestExplainListsProbesAndQPTs(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	out := e.Explain(v, []string{"XML", "Search"})
	for _, want := range []string{
		"QPT for books.xml:",
		"QPT for reviews.xml:",
		"/books//book/year [values, pred(> 1995)]",
		"/books//book/title [tf+len]",
		"/books//book/isbn [values]",
		"-> /books/book/year", // '//' expansion against the dictionary
		"/reviews//review/content [tf+len]",
		"inverted list probes: xml, search",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainWithoutKeywords(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	out := e.Explain(v, nil)
	if strings.Contains(out, "inverted list probes") {
		t.Error("no keywords means no inverted probes section")
	}
}

// TestExplainNamesEvaluationMode: Explain says whether evaluation runs one
// work unit per candidate document, over how many side documents, and if
// not, why not — the partition rule's reason or a literal outer document.
func TestExplainNamesEvaluationMode(t *testing.T) {
	e := newCollectionEngine(t, 4)
	if err := e.AddXML("tags.xml", "<tags><tag><tl>study 1</tl><name>one</name></tag></tags>"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ view, want string }{
		{collectionView, "evaluation: per document (4 candidates, 0 side documents)"},
		{`for $a in fn:collection("part-*")/books//article
		  return <r>{$a/bdy}, {for $g in fn:doc(tags.xml)/tags/tag where $g/tl = $a/tl return $g/name}</r>`,
			"evaluation: per document (4 candidates, 1 side documents)"},
		{`for $a in fn:doc(part-0.xml)/books//article return $a`,
			"evaluation: whole view (outer binding is a literal document)"},
		{`for $a in fn:collection("part-*")/books//article
		  return <r>{for $b in fn:collection("part-*")/books//article where $b/tl = $a/tl return $b/bdy}</r>`,
			"evaluation: whole view (outer reference is used more than once)"},
		{`fn:collection("part-*")/books//article`, "evaluation: whole view (no outer for clause)"},
	} {
		v, err := e.CompileView(tc.view)
		if err != nil {
			t.Fatal(err)
		}
		if out := e.Explain(v, nil); !strings.Contains(out, tc.want) {
			t.Errorf("Explain missing %q:\n%s", tc.want, out)
		}
	}
}
