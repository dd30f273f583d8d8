// Microbenchmarks for the tokenization hot path: Tokenize/VisitTokens is
// run for every text node during index construction and for every node of
// every materialized subtree during FromBase scoring, so its per-token
// allocation behavior dominates those paths. FuzzVisitTokens and
// TestCloneMatchesReference keep the optimized paths equal to their
// references.
package xmltree

import (
	"fmt"
	"strings"
	"testing"
)

// benchText builds a corpus-shaped text blob: lowercase ASCII words with
// digits and punctuation, the common case of the synthetic corpora.
func benchText(words int) string {
	var b strings.Builder
	for i := 0; i < words; i++ {
		if i%7 == 0 {
			fmt.Fprintf(&b, "ref-%d ", i)
		}
		b.WriteString("fuzzy neural control systems thomas moore parallel data ")
	}
	return b.String()
}

func benchDoc(b *testing.B, articles int) *Document {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<books>")
	for i := 0; i < articles; i++ {
		fmt.Fprintf(&sb, "<article><tl>study %d</tl><bdy>%s</bdy></article>", i, benchText(8))
	}
	sb.WriteString("</books>")
	doc, err := ParseString(sb.String(), "bench.xml", 1)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

func BenchmarkTokenize(b *testing.B) {
	text := benchText(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

func BenchmarkSubtreeTF(b *testing.B) {
	doc := benchDoc(b, 50)
	kws := []string{"thomas", "control"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SubtreeTF(doc.Root, kws)
	}
}

func BenchmarkContains(b *testing.B) {
	doc := benchDoc(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contains(doc.Root, "moore")
	}
}

func BenchmarkClone(b *testing.B) {
	doc := benchDoc(b, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.Root.Clone()
	}
}
