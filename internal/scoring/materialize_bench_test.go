// Microbenchmark for top-k materialization — the only base-data access of
// the Efficient pipeline. A winner standing for a base subtree is that
// subtree, shared with the store, so this allocates nothing.
package scoring

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/xmltree"
)

// docFetcher serves subtree fetches straight from one parsed document.
type docFetcher struct{ doc *xmltree.Document }

func (f docFetcher) Subtree(id dewey.ID) *xmltree.Node { return f.doc.FindByID(id) }

func BenchmarkMaterialize(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<books>")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&sb,
			"<article><fm><tl>study %d</tl><au>author%d</au></fm><bdy>fuzzy neural control systems thomas moore parallel data</bdy></article>",
			i, i%8)
	}
	sb.WriteString("</books>")
	doc, err := xmltree.ParseString(sb.String(), "books.xml", 1)
	if err != nil {
		b.Fatal(err)
	}
	// A pruned winner standing for the whole document subtree, as PDT
	// generation produces for a 'c' node.
	winner := &xmltree.Node{
		Tag:     doc.Root.Tag,
		ID:      doc.Root.ID,
		ByteLen: doc.Root.ByteLen,
		Meta:    xmltree.ContentMark,
	}
	f := docFetcher{doc: doc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := Materialize(winner, f); n == nil {
			b.Fatal("nil materialization")
		}
	}
}
