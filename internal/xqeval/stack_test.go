// The value stack's discipline, tested on the expression shapes where a
// shared stack could overwrite a region that is still live: every shape
// must evaluate to its pinned answer with the hash join on and off, from a
// fresh evaluator and from one that has run every other shape, whole or
// binding by binding through AppendTail; the stack must be empty between
// evaluations; and a slice Eval returned must not change when the
// evaluator runs again.
package xqeval

import (
	"strings"
	"testing"

	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// stackCatalog is the books and reviews corpus plus three documents for a
// join of joins: each p probes u with up to two keys, and each u probes x
// with up to two.
func stackCatalog(t *testing.T) MapCatalog {
	t.Helper()
	cat := catalog(t)
	for i, d := range []struct{ name, text string }{
		{"p.xml", `<ps><p><k>k2</k><k>k1</k></p><p><k>k9</k></p></ps>`},
		{"u.xml", `<us><u><n>k1</n><w>w1</w><w>w2</w><v>first</v></u><u><n>k2</n><w>w2</w><v>second</v></u><u><n>k2</n><w>w1</w><v>third</v></u></us>`},
		{"x.xml", `<xs><x><id>w1</id><d>one</d></x><x><id>w2</id><d>two</d></x><x><id>w1</id><d>uno</d></x></xs>`},
	} {
		doc, err := xmltree.ParseString(d.text, d.name, int32(10+i))
		if err != nil {
			t.Fatal(err)
		}
		cat[d.name] = doc
	}
	return cat
}

var stackShapes = []struct{ name, query, want string }{
	{
		"constructor inside a where-clause",
		`for $b in fn:doc(books.xml)/books/book
		 where (<w>{$b/isbn}, {$b/year}</w>)/year > 1995
		 return <t>{$b/title}</t>`,
		"<t><title>XML Web Services</title></t>\n<t><title>Artificial Intelligence</title></t>\n",
	},
	{
		"FLWOR inside a comparison operand",
		`for $b in fn:doc(books.xml)/books/book
		 where (for $r in fn:doc(reviews.xml)/reviews/review where $r/isbn = $b/isbn return $r/rate) = 'Fair'
		 return $b/title`,
		"<title>Artificial Intelligence</title>\n",
	},
	{
		"multi-probe join whose return holds another join",
		`for $p in fn:doc(p.xml)/ps/p
		 return <o>{for $u in fn:doc(u.xml)/us/u where $u/n = $p/k
		   return <m>{$u/v}, {for $x in fn:doc(x.xml)/xs/x where $x/id = $u/w return $x/d}</m>}</o>`,
		"<o><m><v>first</v><d>one</d><d>two</d><d>uno</d></m><m><v>second</v><d>two</d></m><m><v>third</v><d>one</d><d>uno</d></m></o>\n<o></o>\n",
	},
	{
		"filter whose predicate holds a FLWOR",
		`fn:doc(books.xml)/books/book[(for $r in fn:doc(reviews.xml)/reviews/review where $r/isbn = ./isbn return $r)]/title`,
		"<title>XML Web Services</title>\n<title>Artificial Intelligence</title>\n",
	},
	{
		"function call inside a constructor",
		`declare function revs($i) { for $r in fn:doc(reviews.xml)/reviews/review where $r/isbn = $i return $r/reviewer }
		 for $b in fn:doc(books.xml)/books/book return <e>{$b/title}, {revs($b/isbn)}, {$b/year}</e>`,
		"<e><title>XML Web Services</title><reviewer>John</reviewer><reviewer>Alex</reviewer><year>2004</year></e>\n" +
			"<e><title>Artificial Intelligence</title><reviewer>Mary</reviewer><year>2002</year></e>\n" +
			"<e><title>Old Compilers</title><year>1990</year></e>\n",
	},
	{
		"300-deep constructor nesting",
		`for $b in fn:doc(books.xml)/books/book where $b/year > 2003 return ` +
			strings.Repeat("<a>", 300) + "{$b/title}" + strings.Repeat("</a>", 300),
		strings.Repeat("<a>", 300) + "<title>XML Web Services</title>" + strings.Repeat("</a>", 300) + "\n",
	},
}

// show renders an item sequence one item per line, nodes as compact XML.
func show(items []Item) string {
	var b strings.Builder
	for _, item := range items {
		if n, ok := item.(*xmltree.Node); ok {
			b.WriteString(n.XMLString(""))
		} else {
			b.WriteString(Atomize(item))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestStackDiscipline(t *testing.T) {
	cat := stackCatalog(t)
	queries := make([]*xq.Query, len(stackShapes))
	for i, s := range stackShapes {
		queries[i] = xq.MustParse(s.query)
	}
	for _, hashJoin := range []bool{true, false} {
		check := func(ev *Evaluator, i int, how string, got []Item) {
			t.Helper()
			if s := show(got); s != stackShapes[i].want {
				t.Errorf("%s, hash join %v, %s:\ngot  %q\nwant %q", stackShapes[i].name, hashJoin, how, s, stackShapes[i].want)
			}
			if len(ev.stack) != 0 || len(ev.positions) != 0 {
				t.Errorf("%s, hash join %v, %s: %d stack and %d position entries left behind",
					stackShapes[i].name, hashJoin, how, len(ev.stack), len(ev.positions))
			}
		}
		reused := New(cat, nil)
		reused.HashJoin = hashJoin
		first := make([][]Item, len(queries))
		for round := 0; round < 2; round++ {
			for i, q := range queries {
				fresh := New(cat, q.Functions)
				fresh.HashJoin = hashJoin
				out, err := fresh.EvalQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				check(fresh, i, "fresh evaluator", out)

				if out, err = reused.EvalQuery(q); err != nil {
					t.Fatal(err)
				}
				check(reused, i, "reused evaluator", out)
				if round == 0 {
					first[i] = out
				}

				// The same value binding by binding, every tail on the reused
				// evaluator.
				fl, ok := q.Body.(*xq.FLWORExpr)
				if !ok {
					continue
				}
				bindings, ok, err := reused.OuterBindings(fl)
				if err != nil || !ok {
					t.Fatalf("%s: OuterBindings = %v, %v", stackShapes[i].name, ok, err)
				}
				var nodes []*xmltree.Node
				for _, b := range bindings {
					if nodes, err = reused.AppendTail(nodes, fl, b); err != nil {
						t.Fatal(err)
					}
				}
				tails := make([]Item, len(nodes))
				for j, n := range nodes {
					tails[j] = n
				}
				check(reused, i, "AppendTail per binding", tails)
			}
		}
		// Every shape has since run again, twice over, on the evaluator that
		// returned these slices.
		for i, out := range first {
			check(reused, i, "slice returned a round earlier", out)
		}
	}
}

// TestEvalAllocationsPerBinding: once an evaluator has built its join
// index, evaluating the benchmark's direct_join view allocates two objects
// per constructed element — the node and its exact-size Children — and
// nothing else that grows with the catalog: no frame per binding, no slice
// per path step, constructor child or loop result.
func TestEvalAllocationsPerBinding(t *testing.T) {
	q := xq.MustParse(directJoinBenchView)
	measure := func(books, reviews int) (allocs float64, elements int) {
		ev := New(benchCatalog(t, books, reviews), q.Functions)
		out, err := ev.Eval(q.Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, item := range out {
			item.(*xmltree.Node).Walk(func(n *xmltree.Node) {
				if n.ID == nil {
					elements++
				}
			})
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ev.Eval(q.Body, nil); err != nil {
				t.Fatal(err)
			}
		}), elements
	}
	allocs, elements := measure(100, 200)
	allocs2, elements2 := measure(200, 400)
	t.Logf("%.0f -> %.0f allocations for %d -> %d constructed elements", allocs, allocs2, elements, elements2)
	if grew, limit := allocs2-allocs, float64(2*(elements2-elements)); grew > limit {
		t.Errorf("doubling the catalog added %.0f allocations for %d more constructed elements; want at most %.0f",
			grew, elements2-elements, limit)
	}
}

// TestEvalLiteralAllocationsPerBinding: a where-clause literal is boxed
// once, when the query is parsed, so a selection by value allocates
// nothing per binding: evaluating it over twice the elements costs no more
// allocations.
func TestEvalLiteralAllocationsPerBinding(t *testing.T) {
	q := xq.MustParse(`for $a in fn:doc(r.xml)/r/a where $a/y > 1990 return $a`)
	measure := func(n int) float64 {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			b.WriteString("<a><y>1985</y></a><a><y>1995</y></a>")
		}
		b.WriteString("</r>")
		doc, err := xmltree.ParseString(b.String(), "r.xml", 1)
		if err != nil {
			t.Fatal(err)
		}
		ev := New(MapCatalog{"r.xml": doc}, q.Functions)
		if out, err := ev.Eval(q.Body, nil); err != nil || len(out) != n {
			t.Fatalf("%d results, err %v", len(out), err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ev.Eval(q.Body, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, a2 := measure(50), measure(100); a2 > a {
		t.Errorf("%v allocations over 100 bindings, %v over 200: the literal is boxed per binding", a, a2)
	}
}
