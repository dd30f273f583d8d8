// Microbenchmark for PDT generation — the per-candidate-document inner
// loop of every Efficient search. vxmlbench's figures and bench/'s
// pdt.generate_us measure the same pipeline end to end; this isolates
// Generate (merge + Candidate Tree
// maintenance + emission) over prepared lists.
package pdt

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
	"vxml/internal/xq"

	"vxml/internal/qpt"
)

// benchIndices builds the benchmark document of the given size, its indices
// and the QPT of a selection view with a range predicate over it.
func benchIndices(tb testing.TB, articles int) (*qpt.QPT, *pathindex.Index, *invindex.Index) {
	tb.Helper()
	var sb strings.Builder
	sb.WriteString("<books>")
	for i := 0; i < articles; i++ {
		fmt.Fprintf(&sb,
			"<book><isbn>%d</isbn><title>xml search volume %d</title><year>%d</year></book>",
			i, i, 1990+i%20)
	}
	sb.WriteString("</books>")
	doc, err := xmltree.ParseString(sb.String(), "books.xml", 1)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := xq.Parse(`
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <r>{$book/isbn}, {$book/title}</r>`)
	if err != nil {
		tb.Fatal(err)
	}
	qpts, err := qpt.Generate(q.Body, q.Functions)
	if err != nil {
		tb.Fatal(err)
	}
	return qpts[0], pathindex.Build(doc), invindex.Build(doc)
}

func benchWorkload(b *testing.B, articles int) (*qpt.QPT, *Lists) {
	b.Helper()
	q, pix, iix := benchIndices(b, articles)
	return q, PrepareLists(q, pix, iix, []string{"xml", "search"})
}

// BenchmarkPrepareLists isolates the index half of PDT generation — the
// Figure-7 probes of one candidate document — with and without keywords.
// Only the predicate-filtered list (year > 1995) should cost in proportion
// to the document. At 8 articles, the size of a collection_fanout part, it
// also runs the engine's per-candidate pipeline, list preparation and
// generation in a pooled generator's memory (GenerateFromIndex), whose
// allocations are the PDT's alone.
func BenchmarkPrepareLists(b *testing.B) {
	for _, articles := range []int{8, 200, 3200} {
		q, pix, iix := benchIndices(b, articles)
		for _, kws := range [][]string{nil, {"xml", "search"}} {
			b.Run(fmt.Sprintf("articles=%d/keywords=%d", articles, len(kws)), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if lists := PrepareLists(q, pix, iix, kws); len(lists.Paths) == 0 {
						b.Fatal("no lists")
					}
				}
			})
		}
		if articles == 8 {
			b.Run("articles=8/pooled-generate", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if p := GenerateFromIndex(q, pix, "books.xml"); p.Nodes == 0 {
						b.Fatal("empty PDT")
					}
				}
			})
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	q, lists := benchWorkload(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := Generate(q, lists, "books.xml"); p.Nodes == 0 {
			b.Fatal("empty PDT")
		}
	}
}
