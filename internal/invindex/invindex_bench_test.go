// Microbenchmarks for inverted-index construction and subtree-TF probing —
// the two invindex paths on the ingest and PDT-generation hot loops.
// TestRangeBoundsMatchesTwoBinarySearches keeps the range probe equal to
// its reference.
package invindex

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/xmltree"
)

func benchDoc(b *testing.B, articles int) *xmltree.Document {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<books>")
	for i := 0; i < articles; i++ {
		fmt.Fprintf(&sb,
			"<article><tl>study %d of fuzzy systems</tl><bdy>fuzzy neural control systems thomas moore parallel data ieee computing item-%d</bdy></article>",
			i, i)
	}
	sb.WriteString("</books>")
	doc, err := xmltree.ParseString(sb.String(), "bench.xml", 1)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

func BenchmarkBuild(b *testing.B) {
	doc := benchDoc(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(doc)
	}
}

// BenchmarkSubtreeTFProbe sums one keyword's term frequency over every
// article's subtree — collect's inner loop — for a keyword that does not
// occur (empty list), one confined to a single article (short) and one in
// every article of a large document (long: the list spans the document, an
// article's range is two postings of it).
func BenchmarkSubtreeTFProbe(b *testing.B) {
	for _, bc := range []struct {
		name, keyword string
		articles      int
	}{{"empty", "absent", 100}, {"short", "17", 100}, {"long", "fuzzy", 2000}} {
		doc := benchDoc(b, bc.articles)
		pl := Build(doc).Lookup(bc.keyword)
		articles := doc.Root.Children
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, a := range articles {
					pl.SubtreeTF(a.ID)
				}
			}
		})
	}
}

func BenchmarkContainsSubtreeProbe(b *testing.B) {
	doc := benchDoc(b, 100)
	ix := Build(doc)
	pl := ix.Lookup("moore")
	articles := doc.Root.Children
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range articles {
			pl.ContainsSubtree(a.ID)
		}
	}
}
