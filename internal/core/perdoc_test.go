package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/baseline"
	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/gtp"
	"vxml/internal/scoring"
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
// differ. Two of them return the bound document node itself: its content
// is the document's root element, which the PDT carries as a 'c' node so
// that the result scores the whole document, as Baseline's does.
var perDocViews = []string{
	testkit.EqViews[0],
	testkit.EqViews[3],
	`for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1990 return $a`,
	`for $d in fn:collection("part-*") return <n>{$d/books//article/fm/tl}</n>`,
	`for $d in fn:collection("part-*") return $d`,
	`for $d in fn:collection("part-*") return <n>{$d}, {$d/books//article/fm/tl}</n>`,
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

// arenaViews are per-document views whose results reach every kind of
// node the per-document pass detaches from its workers' arenas: an arena
// node as the result ($a), arena nodes under a constructed wrapper and
// under a wrapper of a bound document node, the side document's PDT nodes
// of two equality joins, and the unit's document node itself, as the
// result and inside a wrapper beside nodes of its own subtree.
var arenaViews = []string{
	`for $a in fn:collection("part-*")/books//article return $a`,
	testkit.EqViews[0],
	`for $d in fn:collection("part-*") return <n>{$d/books//article/fm/tl}</n>`,
	testkit.EqViews[1],
	testkit.DocNodeJoin,
	`for $d in fn:collection("part-*") return $d`,
	`for $d in fn:collection("part-*") return <n>{$d}, {$d/books//article/fm/tl}</n>`,
}

// TestPerDocumentArenaDetachMatchesBaseline: every worker generates its
// units' PDTs into one pooled arena, and the pass clears each arena once
// its units are done, so a result still pointing into one would read
// zeroed nodes, and a later search reusing the arena would overwrite them.
// Over a corpus with an empty-PDT candidate between non-empty ones, at
// pools of one and four, each view's results are byte-identical to
// Baseline's three ways: as searched; as ranked pruned trees, which must
// hold no zeroed node, materialized after the pass; and served from the
// catalog skeleton a planned search recorded, after searches over the
// other views have reused the pooled arenas.
func TestPerDocumentArenaDetachMatchesBaseline(t *testing.T) {
	e := eqEngine(t, 71, 6)
	rng := rand.New(rand.NewSource(72))
	if err := e.AddXML("part-empty.xml", "<books><misc>copper quartz</misc></books>"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.AddXML(fmt.Sprintf("part-late-%d.xml", i), "<books>"+testkit.RandomArticle(rng, 9100+i)+"</books>"); err != nil {
			t.Fatal(err)
		}
	}
	views := make([]*core.View, len(arenaViews))
	for vi, text := range arenaViews {
		v, err := e.CompileView(text)
		if err != nil {
			t.Fatal(err)
		}
		if !core.RunsPerDocument(v) {
			t.Fatalf("view %d does not run per document", vi)
		}
		views[vi] = v
	}
	matched := 0
	for _, par := range []int{1, 4} {
		for _, kws := range [][]string{{"copper"}, {"copper", "quartz"}} {
			opts := core.Options{Parallelism: par, Disjunctive: len(kws) > 1}
			planned := opts
			planned.Plan = true
			for vi, v := range views {
				label := fmt.Sprintf("view %d pool %d kws %v", vi, par, kws)
				want := baselineRows(t, e, v, kws, opts)
				got, stats := statRows(t, e, v, kws, opts)
				matched += stats.Matched
				mustMatchReference(t, label, want, got)
				// The skeleton of every view is recorded first, then served
				// once the other views' passes have reused the arenas.
				statRows(t, e, v, kws, planned)

				ranked, _, err := core.RankedPruned(e, v, kws, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(ranked) != len(want) {
					t.Fatalf("%s: %d ranked, the reference has %d", label, len(ranked), len(want))
				}
				for i, sc := range ranked {
					sc.Result.Walk(func(n *xmltree.Node) {
						if n.Tag == "" {
							t.Fatalf("%s: ranked result %d reaches a zeroed node", label, i)
						}
					})
					if x := scoring.Materialize(sc.Result, e.Store).XMLString(""); x != want[i].xml {
						t.Fatalf("%s: ranked result %d materializes to\n%s\nthe reference's is\n%s", label, i, x, want[i].xml)
					}
				}
			}
			for vi, v := range views {
				label := fmt.Sprintf("view %d pool %d kws %v (skeleton)", vi, par, kws)
				got, stats := statRows(t, e, v, kws, planned)
				if stats.PlanSource == catalog.PlanDirect {
					t.Fatalf("%s: the planned search was not served from the skeleton", label)
				}
				mustMatchReference(t, label, baselineRows(t, e, v, kws, opts), got)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no search matched anything; the corpus no longer exercises the pipeline")
	}
}

// mustMatchReference holds searched rows against a reference's, whose
// snippets are not compared: Baseline cuts none.
func mustMatchReference(t *testing.T, label string, want, got []row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, the reference has %d", label, len(got), len(want))
	}
	for i := range want {
		w := want[i]
		w.snippet = got[i].snippet
		if w != got[i] {
			t.Fatalf("%s: result %d differs from the reference\nwant %+v\ngot  %+v", label, i, w, got[i])
		}
	}
}

// keepCorpus is an engine over twelve parts of two articles each: a
// quarter of the parts' first articles say "copper", every other article
// says "quartz", so either keyword matches results the other does not.
func keepCorpus(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New(store.NewSharded(2))
	for i := 0; i < 12; i++ {
		word := "quartz"
		if i%4 == 0 {
			word = "copper"
		}
		xml := fmt.Sprintf(`<books><article><fm><tl>study %d</tl><yr>%d</yr></fm><bdy>%s notes %d</bdy></article>`+
			`<article><fm><tl>memo %d</tl><yr>1990</yr></fm><bdy>quartz memo</bdy></article></books>`, i, 1980+i, word, i, i)
		if err := e.AddXML(fmt.Sprintf("part-%02d.xml", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// shelfCorpus is keepCorpus plus shelf.xml, which holds every part's
// articles.
func shelfCorpus(t *testing.T) *core.Engine {
	t.Helper()
	e := keepCorpus(t)
	var shelf strings.Builder
	shelf.WriteString("<books>")
	for i := 0; i < 12; i++ {
		xml := e.Store.Doc(fmt.Sprintf("part-%02d.xml", i)).Root.XMLString("")
		shelf.WriteString(strings.TrimSuffix(strings.TrimPrefix(xml, "<books>"), "</books>"))
	}
	shelf.WriteString("</books>")
	if err := e.AddXML("shelf.xml", shelf.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// baselineRows is Baseline's answer as rows.
func baselineRows(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options) []row {
	t.Helper()
	base, _, err := baseline.Search(e, v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]row, len(base))
	for i, r := range base {
		rows[i] = rowOf(r)
	}
	return rows
}

// TestPerDocumentKeepPolicy: a per-document unit detaches only the results
// its caller reads, and every caller still gets what it reads, at pools of
// one and four:
//   - a planned search that evaluates directly keeps every result, since it
//     records the view's skeleton: a later planned search whose keywords
//     match the results the first one's did not is served from that
//     skeleton and is byte-identical to Baseline;
//   - ClusterRank keeps none, and MaterializeAt at every position it
//     reports gives the trees and snippets SearchPage gives those
//     positions;
//   - a local ranking keeps exactly the matching results, so a search that
//     matches nothing detaches nothing.
func TestPerDocumentKeepPolicy(t *testing.T) {
	for _, text := range []string{
		`for $a in fn:collection("part-*")/books//article return $a`,
		`for $a in fn:collection("part-*")/books//article return <r>{$a/fm/tl}, {$a/bdy}</r>`,
	} {
		for _, par := range []int{1, 4} {
			e := keepCorpus(t)
			v, err := e.CompileView(text)
			if err != nil {
				t.Fatal(err)
			}
			if !core.RunsPerDocument(v) {
				t.Fatalf("view %q does not run per document", text)
			}
			checkKeepPolicy(t, e, v, par)
		}
	}
}

// TestWholeViewKeepPolicy holds the keep policy on views that do not run
// per document, at pools of one and four: a join whose outer document is a
// literal one (outer-binding chunks), a self-join and a let-first view
// (both evaluated whole, then collected in result chunks). The shelf holds
// every part's articles, so "copper" matches a quarter of the studies.
// The cluster primitives refuse the two views the partition rule does.
func TestWholeViewKeepPolicy(t *testing.T) {
	for _, text := range []string{
		`for $a in fn:doc(shelf.xml)/books//article
		 return <r>{$a/bdy}, {for $p in fn:collection("part-*")/books//article where $p/fm/yr = $a/fm/yr return $p/fm/tl}</r>`,
		`for $a in fn:doc(shelf.xml)/books//article
		 return <r>{$a/bdy}, {for $b in fn:doc(shelf.xml)/books//article where $b/fm/yr = $a/fm/yr return $b/fm/tl}</r>`,
		`let $as := fn:doc(shelf.xml)/books//article for $a in $as return $a`,
	} {
		for _, par := range []int{1, 4} {
			e := shelfCorpus(t)
			v, err := e.CompileView(text)
			if err != nil {
				t.Fatal(err)
			}
			if core.RunsPerDocument(v) {
				t.Fatalf("view %q runs per document", text)
			}
			checkKeepPolicy(t, e, v, par)
		}
	}
}

// checkKeepPolicy holds the keep policy of a search over v at pool par
// (see TestPerDocumentKeepPolicy) over keepCorpus's articles.
func checkKeepPolicy(t *testing.T, e *core.Engine, v *core.View, par int) {
	t.Helper()
	ctx := context.Background()
	text := v.Text
	label := fmt.Sprintf("view %q pool %d", text, par)
	opts := core.Options{Parallelism: par}
	planned := core.Options{Parallelism: par, Plan: true}

	got, stats := statRows(t, e, v, []string{"copper"}, planned)
	if stats.PlanSource != catalog.PlanDirect || stats.Matched == 0 || 4*stats.Matched > stats.ViewSize {
		t.Fatalf("%s: the first planned search ran %s and matched %d of %d", label, stats.PlanSource, stats.Matched, stats.ViewSize)
	}
	mustMatchReference(t, label+" copper", baselineRows(t, e, v, []string{"copper"}, opts), got)
	for _, kws := range [][]string{{"quartz"}, {"copper", "quartz"}} {
		got, stats := statRows(t, e, v, kws, planned)
		if stats.PlanSource == catalog.PlanDirect {
			t.Fatalf("%s %v: the rewrite was not served from the skeleton", label, kws)
		}
		mustMatchReference(t, fmt.Sprintf("%s %v (skeleton)", label, kws), baselineRows(t, e, v, kws, opts), got)
	}
	art, _, _ := e.Catalog.Artifact(text)
	if art == nil || slices.Contains(art.Results, nil) {
		t.Fatalf("%s: the recorded skeleton is missing or has a nil slot", label)
	}

	kws := []string{"quartz"}
	rk, err := e.ClusterRank(ctx, v, kws, opts)
	if v.Deps.Partition() != "" {
		_, _, matErr := e.MaterializeAt(ctx, v, kws, opts, nil)
		if !errors.Is(err, core.ErrUnpartitionableView) || !errors.Is(matErr, core.ErrUnpartitionableView) {
			t.Fatalf("%s: the cluster primitives answered an unpartitionable view: %v, %v", label, err, matErr)
		}
	} else {
		if err != nil {
			t.Fatal(err)
		}
		mustClusterMaterializeLikeSearchPage(t, label, e, v, kws, opts, rk)
		mustAttributeByBinding(t, label, e, v, kws, opts)
	}

	for _, kws := range [][]string{{"copper"}, {"nowhere"}} {
		kept, size, err := core.KeptResults(e, v, kws, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, stats := statRows(t, e, v, kws, opts)
		if kept != stats.Matched || size != stats.ViewSize || size == 0 {
			t.Fatalf("%s %v: kept %d of %d results, %d of %d match", label, kws, kept, size, stats.Matched, stats.ViewSize)
		}
	}
}

// mustClusterMaterializeLikeSearchPage holds MaterializeAt at every
// position rk reports against the trees and snippets SearchPage gives
// those positions.
func mustClusterMaterializeLikeSearchPage(t *testing.T, label string, e *core.Engine, v *core.View, kws []string, opts core.Options, rk *core.ClusterRanking) {
	t.Helper()
	ctx := context.Background()
	positions := make([]int, len(rk.Candidates))
	for i, c := range rk.Candidates {
		positions[i] = c.Pos
	}
	mats, _, err := e.MaterializeAt(ctx, v, kws, opts, positions)
	if err != nil {
		t.Fatal(err)
	}
	byPos := map[int]core.ClusterMaterialized{}
	for _, m := range mats {
		byPos[m.Pos] = m
	}
	ranked, _, err := core.RankedPruned(e, v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := e.SearchPage(ctx, v, kws, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(mats) || len(ranked) != len(results) || len(results) == 0 {
		t.Fatalf("%s: SearchPage has %d results, ClusterRank %d candidates", label, len(results), len(mats))
	}
	for i, r := range results {
		m, ok := byPos[ranked[i].Index]
		if !ok {
			t.Fatalf("%s: result %d at view position %d is no ClusterRank candidate", label, i, ranked[i].Index)
		}
		if x := m.Element.XMLString(""); x != r.Element.XMLString("") || m.Snippet != r.Snippet {
			t.Fatalf("%s: position %d materializes to\n%s %q\nSearchPage has\n%s %q", label, m.Pos, x, m.Snippet, r.Element.XMLString(""), r.Snippet)
		}
	}
}
