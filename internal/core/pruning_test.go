package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// buildBigSelection creates a corpus where only a few elements contain the
// keyword, so pruning has something to skip.
func buildBigSelection(t *testing.T, n int) *Engine {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	var b strings.Builder
	b.WriteString("<articles>")
	for i := 0; i < n; i++ {
		kw := "filler"
		if i%17 == 0 {
			kw = "quantum"
		}
		extra := ""
		if i%23 == 0 {
			kw += " entangled"
		}
		fmt.Fprintf(&b, "<article><yr>%d</yr><body>%s text %d %s</body></article>",
			1990+r.Intn(20), kw, i, extra)
	}
	b.WriteString("</articles>")
	e := emptyEngine()
	if err := e.AddXML("articles.xml", b.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

const selectionView = `
for $a in fn:doc(articles.xml)/articles//article
where $a/yr > 1995
return $a`

func resultSet(results []Result) []string {
	var out []string
	for _, r := range results {
		out = append(out, r.Element.XMLString(""))
	}
	sort.Strings(out)
	return out
}

func TestKeywordPruningSameResultSet(t *testing.T) {
	e := buildBigSelection(t, 400)
	v, err := e.CompileView(selectionView)
	if err != nil {
		t.Fatal(err)
	}
	for _, disjunctive := range []bool{false, true} {
		plain, pstats, err := e.Search(v, []string{"quantum", "entangled"},
			Options{Disjunctive: disjunctive})
		if err != nil {
			t.Fatal(err)
		}
		pruned, stats, err := e.Search(v, []string{"quantum", "entangled"},
			Options{Disjunctive: disjunctive, KeywordPruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.KeywordPruned {
			t.Fatal("pruning not applied to a selection view")
		}
		a, b := resultSet(plain), resultSet(pruned)
		if len(a) != len(b) {
			t.Fatalf("disj=%v: result sets differ: %d vs %d", disjunctive, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("disj=%v: result %d differs", disjunctive, i)
			}
		}
		if stats.PDTNodes >= pstats.PDTNodes {
			t.Errorf("disj=%v: pruning did not shrink the PDT: %d vs %d",
				disjunctive, stats.PDTNodes, pstats.PDTNodes)
		}
	}
}

func TestKeywordPruningDisjunctivePreservesOrder(t *testing.T) {
	e := buildBigSelection(t, 400)
	v, err := e.CompileView(selectionView)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := e.Search(v, []string{"quantum", "entangled"}, Options{Disjunctive: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := e.Search(v, []string{"quantum", "entangled"},
		Options{Disjunctive: true, KeywordPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	// Under disjunctive semantics pruned elements contain no keyword, so
	// IDF rescaling is uniform and the rank order is preserved.
	if len(plain) != len(pruned) {
		t.Fatalf("result counts differ: %d vs %d", len(plain), len(pruned))
	}
	for i := range plain {
		if plain[i].Element.XMLString("") != pruned[i].Element.XMLString("") {
			t.Errorf("rank %d differs", i+1)
		}
	}
}

func TestKeywordPruningIgnoredForJoins(t *testing.T) {
	e := engineWithBooks(t)
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.Search(v, []string{"xml"}, Options{KeywordPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeywordPruned {
		t.Error("pruning must not apply to join views (non-monotone)")
	}
}

func TestKeywordPruningIgnoredForConstructors(t *testing.T) {
	e := buildBigSelection(t, 50)
	v, err := e.CompileView(`
for $a in fn:doc(articles.xml)/articles//article
return <w>{$a/body}</w>`)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.Search(v, []string{"quantum"}, Options{KeywordPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeywordPruned {
		t.Error("pruning must not apply to constructor views")
	}
}

func TestKeywordPruningBarePathView(t *testing.T) {
	e := buildBigSelection(t, 200)
	v, err := e.CompileView(`fn:doc(articles.xml)/articles/article[yr > 1995]`)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := e.Search(v, []string{"quantum"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, stats, err := e.Search(v, []string{"quantum"}, Options{KeywordPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.KeywordPruned {
		t.Fatal("bare path views are selection-shaped")
	}
	a, b := resultSet(plain), resultSet(pruned)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Error("result sets differ for bare path view")
	}
}
