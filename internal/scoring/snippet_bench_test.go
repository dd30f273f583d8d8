// Microbenchmark for snippet extraction: one per delivered winner, over a
// materialized article whose only hit sits in its last paragraph, so the
// matcher scans every text value before it.
package scoring

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/xmltree"
)

// articleXML is an article-shaped winner: front matter, then sections of
// paragraphs in capitalised prose, with "XML Views" only in the last
// paragraph. word renders the prose's nth word.
func articleXML(word func(int) string) string {
	var sb strings.Builder
	sb.WriteString("<article><fm><tl>Fuzzy Neural Control Systems</tl><au>Thomas Moore</au><yr>1999</yr></fm><bdy>")
	n := 0
	for s := 0; s < 4; s++ {
		fmt.Fprintf(&sb, "<sec><st>Section %d Parallel Data</st>", s+1)
		for p := 0; p < 3; p++ {
			sb.WriteString("<p>")
			for w := 0; w < 40; w++ {
				sb.WriteString(word(n))
				sb.WriteByte(' ')
				n++
			}
			if s == 3 && p == 2 {
				sb.WriteString("Keyword Search Over Virtual XML Views Ends The Article.")
			}
			sb.WriteString("</p>")
		}
		sb.WriteString("</sec>")
	}
	sb.WriteString("</bdy></article>")
	return sb.String()
}

func BenchmarkSnippet(b *testing.B) {
	ascii := []string{"Fuzzy", "Neural", "Control", "Systems", "Thomas", "Moore", "Parallel", "Data", "Indexing", "Retrieval", "Ranking", "Queries"}
	mixed := []string{"Fuzzy", "Über", "Control", "Café", "Thomas", "Naïve", "Parallel", "Données", "Indexing", "Ärger", "Ranking", "Öffnung"}
	for _, c := range []struct {
		name  string
		words []string
	}{{"ascii", ascii}, {"non-ascii", mixed}} {
		doc, err := xmltree.ParseString(articleXML(func(n int) string { return c.words[n%len(c.words)] }), "a.xml", 1)
		if err != nil {
			b.Fatal(err)
		}
		kws := []string{"xml", "views"}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if Snippet(doc.Root, kws, 160) == "" {
					b.Fatal("no snippet")
				}
			}
		})
	}
}
