package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/baseline"
	"vxml/internal/core"
	"vxml/internal/gtp"
	"vxml/internal/store"
	"vxml/internal/testkit"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// TestPerDocumentEligibility pins which views run one work unit per
// candidate document: exactly those the partition rule admits
// (Deps.Partition: the outer FLWOR opens with a for over a reference used
// nowhere else) whose outer reference is a collection pattern. Side
// documents do not matter.
func TestPerDocumentEligibility(t *testing.T) {
	for _, tc := range []struct {
		name, view string
		in         bool
	}{
		{"collection selection",
			`for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1990 return $a`, true},
		{"collection with constructor",
			`for $a in fn:collection("part-*")/books//article return <r>{$a/fm/tl}, {$a/bdy}</r>`, true},
		{"document-node binding",
			`for $d in fn:collection("part-*") return <n>{$d/books//article/fm/tl}</n>`, true},
		{"self-join over the collection",
			`for $a in fn:collection("part-*")/books//article
			 return <r>{$a/fm/tl}, {for $b in fn:collection("part-*")/books//article
			   where $b/fm/yr = $a/fm/yr return $b/fm/au}</r>`, false},
		{"collection joined to a literal document", testkit.EqViews[1], true},
		{"document-node binding joined to a literal document", testkit.DocNodeJoin, true},
		{"single clause compared with a literal document", testkit.SideEqJoin, true},
		{"literal-document outer", testkit.EqViews[2], false},
		{"let first",
			`let $as := fn:collection("part-*")/books//article for $a in $as return $a`, false},
		{"bare path", `fn:collection("part-*")/books//article[fm/yr > 1990]`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := core.Compile(tc.view)
			if err != nil {
				t.Fatal(err)
			}
			reason := core.PerDocumentReason(v)
			if got := core.RunsPerDocument(v); got != tc.in || (reason == "") != tc.in {
				t.Fatalf("per document = %v (reason %q), want %v", got, reason, tc.in)
			}
		})
	}
}

// perDocViews are per-document views covering a constructor, an equality
// where, a selection, a document-node binding, two joins to the side
// document authors.xml and a single-clause where comparing with it. The
// document-node views bind every candidate's document node, including
// part-zz's, whose PDT is empty: the PDT pipelines must still bind it and
// return an <n/>, as Baseline does, or |V(D)| and with it every IDF would
// differ.
var perDocViews = []string{
	testkit.EqViews[0],
	testkit.EqViews[3],
	`for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1990 return $a`,
	`for $d in fn:collection("part-*") return <n>{$d/books//article/fm/tl}</n>`,
	testkit.EqViews[1],
	testkit.DocNodeJoin,
	testkit.SideEqJoin,
}

// TestPerDocumentMatchesWholeViewAndBaseline holds the per-document
// pipeline against the whole-view pipeline on the same engine (every
// observable byte plus the PDT, candidate and view-size counters), against
// the Baseline and GTP comparators (materialize, then search) and against
// the cluster primitives, whose owners are held against attribution by
// outer binding, at pools of one and four. The corpus has
// a candidate whose PDT is empty and a replaced part whose fresh document ID
// moves it last in enumeration.
func TestPerDocumentMatchesWholeViewAndBaseline(t *testing.T) {
	e := eqEngine(t, 61, 10)
	if err := e.AddXML("part-zz.xml", "<books><misc>copper quartz</misc></books>"); err != nil {
		t.Fatal(err)
	}
	if err := e.ReplaceXML("part-01.xml", "<books>"+testkit.RandomArticle(rand.New(rand.NewSource(62)), 9001)+"</books>"); err != nil {
		t.Fatal(err)
	}
	kwSets := [][]string{{"copper"}, {"copper", "quartz"}, nil}
	matched := 0
	for vi, text := range perDocViews {
		v, err := e.CompileView(text)
		if err != nil {
			t.Fatal(err)
		}
		if !core.RunsPerDocument(v) {
			t.Fatalf("view %d does not run per document", vi)
		}
		whole := core.WholeViewCopy(v)
		for _, par := range []int{1, 4} {
			for _, kws := range kwSets {
				for _, opts := range []core.Options{
					{Parallelism: par},
					{Parallelism: par, K: 3},
					{Parallelism: par, Disjunctive: true},
					{Parallelism: par, Disjunctive: true, K: 4},
				} {
					label := fmt.Sprintf("view %d kws %v opts %+v", vi, kws, opts)
					got, gotStats := statRows(t, e, v, kws, opts)
					want, wantStats := statRows(t, e, whole, kws, opts)
					mustEqualRows(t, label+" vs whole view", want, got)
					if gotStats.PDTNodes != wantStats.PDTNodes || gotStats.PDTBytes != wantStats.PDTBytes ||
						gotStats.Candidates != wantStats.Candidates || gotStats.ViewSize != wantStats.ViewSize ||
						gotStats.Matched != wantStats.Matched {
						t.Fatalf("%s: stats diverge from whole view\nwant %+v\ngot  %+v", label, wantStats, gotStats)
					}
					matched += gotStats.Matched
					mustEqualRows(t, label+" cluster", got, clusterRows(t, e, v, kws, opts))
					mustAttributeByBinding(t, label, e, v, kws, opts)
					base, _, err := baseline.Search(e, v, kws, opts)
					if err != nil {
						t.Fatal(err)
					}
					tj, _, err := gtp.Search(e, v, kws, opts)
					if err != nil {
						t.Fatal(err)
					}
					for name, rs := range map[string][]core.Result{"baseline": base, "gtp": tj} {
						if len(rs) != len(got) {
							t.Fatalf("%s: %d results, %s has %d", label, len(got), name, len(rs))
						}
						for i, r := range rs {
							w := rowOf(r)
							w.snippet = got[i].snippet // the comparators cut no snippets
							if w != got[i] {
								t.Fatalf("%s: result %d differs from %s\nwant %+v\ngot  %+v", label, i, name, w, got[i])
							}
						}
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("no cell matched anything; the corpus no longer exercises the pipeline")
	}
}

// mustAttributeByBinding holds ClusterRank's owners, which the
// per-document pipeline takes from its units, against the reference
// attribution by outer binding: the view evaluated over the base documents
// one outer binding at a time, each result owned by the document the
// binding came from — a document node's by its root element.
func mustAttributeByBinding(t *testing.T, label string, e *core.Engine, v *core.View, kws []string, opts core.Options) {
	t.Helper()
	rk, err := e.ClusterRank(context.Background(), v, kws, opts)
	if err != nil {
		t.Fatalf("%s: ClusterRank: %v", label, err)
	}
	fl := v.Expr.(*xq.FLWORExpr)
	ev := xqeval.New(baseCatalog{e}, v.Funcs)
	bindings, _, err := ev.OuterBindings(fl)
	if err != nil {
		t.Fatal(err)
	}
	var owners []int32
	for _, b := range bindings {
		n := b.(*xmltree.Node)
		if len(n.ID) == 0 {
			n = n.Children[0]
		}
		items, err := ev.EvalTail(fl, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if _, isNode := it.(*xmltree.Node); isNode {
				owners = append(owners, n.ID[0])
			}
		}
	}
	if len(owners) != rk.ViewSize {
		t.Fatalf("%s: %d view results by binding, ClusterRank has %d", label, len(owners), rk.ViewSize)
	}
	for _, c := range rk.Candidates {
		if c.Doc != owners[c.Pos] {
			t.Fatalf("%s: result %d owned by document %d, its outer binding's is %d", label, c.Pos, c.Doc, owners[c.Pos])
		}
	}
}

// baseCatalog evaluates a view over the engine's base documents.
type baseCatalog struct{ e *core.Engine }

func (c baseCatalog) Doc(name string) *xmltree.Document { return c.e.Store.Doc(name) }

func (c baseCatalog) DocsMatching(pattern string) []*xmltree.Document {
	return store.DocsMatching(c.e.Store, pattern)
}

// statRows is searchRows that also returns the search's stats.
func statRows(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options) ([]row, *core.Stats) {
	t.Helper()
	results, stats, err := e.SearchPage(context.Background(), v, kws, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []row
	for _, r := range results {
		rows = append(rows, rowOf(r))
	}
	return rows, stats
}

// countdownCtx reports context.Canceled from its n-th Err call on: a
// cancellation that lands at a deterministic point inside the pool.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPerDocumentCancelMidPool cancels a per-document search part-way
// through its work units: the search fails with an error wrapping
// context.Canceled, and a Replace of a document the search had locked
// proceeds afterwards (no shard lock or pool goroutine was left behind).
func TestPerDocumentCancelMidPool(t *testing.T) {
	e := eqEngine(t, 67, 12)
	v, err := e.CompileView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	// Count the checks a whole search makes, then cancel halfway through:
	// at K 1 all but two of them are the work units'.
	const uncut = 1 << 40
	probe := &countdownCtx{Context: context.Background()}
	probe.n.Store(uncut)
	if _, _, err := e.SearchPage(probe, v, []string{"copper"}, core.Options{Parallelism: 1, K: 1}, 0); err != nil {
		t.Fatal(err)
	}
	checks := uncut - probe.n.Load()
	if checks < 8 {
		t.Fatalf("a search checks its context only %d times", checks)
	}
	for _, par := range []int{1, 4} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(checks / 2)
		_, _, err := e.SearchPage(ctx, v, []string{"copper"}, core.Options{Parallelism: par, K: 1}, 0)
		testkit.WantCtxErr(t, fmt.Sprintf("pool %d", par), err, context.Canceled)
		done := make(chan error, 1)
		go func() {
			done <- e.ReplaceXML("part-03.xml", "<books><article><fm><tl>fresh</tl></fm></article></books>")
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("pool %d: replace after cancel: %v", par, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pool %d: replace after a canceled search did not proceed", par)
		}
		if _, _, err := e.Search(v, []string{"copper"}, core.Options{Parallelism: par}); err != nil {
			t.Fatalf("pool %d: search after cancel: %v", par, err)
		}
	}
}
