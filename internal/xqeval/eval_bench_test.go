// Microbenchmark for FLWOR evaluation — the per-binding environment churn
// of the evaluator, which runs once per view result during every search.
package xqeval

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

func benchCatalog(b testing.TB, books, reviews int) MapCatalog {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<books>")
	for i := 0; i < books; i++ {
		fmt.Fprintf(&sb, "<book><isbn>%d</isbn><title>xml search volume %d</title><year>%d</year></book>", i, i, 1990+i%20)
	}
	sb.WriteString("</books>")
	bdoc, err := xmltree.ParseString(sb.String(), "books.xml", 1)
	if err != nil {
		b.Fatal(err)
	}
	sb.Reset()
	sb.WriteString("<reviews>")
	for i := 0; i < reviews; i++ {
		fmt.Fprintf(&sb, "<review><isbn>%d</isbn><content>review of volume %d</content></review>", i%books, i)
	}
	sb.WriteString("</reviews>")
	rdoc, err := xmltree.ParseString(sb.String(), "reviews.xml", 2)
	if err != nil {
		b.Fatal(err)
	}
	return MapCatalog{"books.xml": bdoc, "reviews.xml": rdoc}
}

// directJoinBenchView is the benchmark workload's shape: the outer loop
// over the small side and a constructor over two step expressions returned
// per matching article.
const directJoinBenchView = `
for $book in fn:doc(books.xml)/books//book
return <brec><t>{$book/title}</t>,
  {for $rev in fn:doc(reviews.xml)/reviews//review
   where $rev/isbn = $book/isbn
   return <rev>{$rev/isbn}, {$rev/content}</rev>}</brec>`

// BenchmarkEvalFLWOR evaluates join views: one_join returns a step
// expression from the inner loop, and direct_join is directJoinBenchView,
// each with a fresh evaluator per iteration; reset_join is direct_join on
// one evaluator reset per iteration, as a pooled evaluator is per pass,
// so its join indices are rebuilt in the storage the evaluator keeps.
func BenchmarkEvalFLWOR(b *testing.B) {
	cat := benchCatalog(b, 100, 200)
	for _, bc := range []struct {
		name, view string
		reset      bool
	}{
		{"one_join", `
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <r>{$book/title},
  {for $rev in fn:doc(reviews.xml)/reviews//review
   where $rev/isbn = $book/isbn
   return $rev/content}</r>`, false},
		{"direct_join", directJoinBenchView, false},
		{"reset_join", directJoinBenchView, true},
	} {
		q, err := xq.Parse(bc.view)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			ev := New(cat, q.Functions)
			for i := 0; i < b.N; i++ {
				if bc.reset {
					ev.Reset(cat, q.Functions)
				} else {
					ev = New(cat, q.Functions)
				}
				out, err := ev.Eval(q.Body, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}
