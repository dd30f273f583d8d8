// Tests of the unified search pipeline through its exported entry points.
// They live in package core_test because the shared corpus/view vocabulary
// (internal/testkit) imports vxml, which imports core.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vxml/internal/baseline"
	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/gtp"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/testkit"
	"vxml/internal/xmltree"
)

// engineTarget adapts an engine to testkit's corpus fillers.
type engineTarget struct{ *core.Engine }

func (e engineTarget) Add(name, xml string) error { return e.AddXML(name, xml) }

func eqEngine(t *testing.T, seed int64, nDocs int) *core.Engine {
	t.Helper()
	e := core.New(store.NewSharded(4))
	testkit.FillEqCorpus(t, rand.New(rand.NewSource(seed)), nDocs, engineTarget{e})
	return e
}

// row is one delivered result reduced to everything a caller can observe.
type row struct {
	rank      int
	scoreBits uint64
	tfs       string
	xml       string
	snippet   string
}

func rowOf(r core.Result) row {
	return row{r.Rank, math.Float64bits(r.Score), fmt.Sprint(r.TFs), r.Element.XMLString(""), r.Snippet}
}

func searchRows(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options, offset int) []row {
	t.Helper()
	results, _, err := e.SearchPage(context.Background(), v, kws, opts, offset)
	if err != nil {
		t.Fatal(err)
	}
	var rows []row
	for _, r := range results {
		rows = append(rows, rowOf(r))
	}
	return rows
}

func seqRows(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options, offset int) []row {
	t.Helper()
	var rows []row
	for r, err := range e.ResultsSeq(context.Background(), v, kws, opts, offset) {
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, rowOf(r))
	}
	return rows
}

// clusterRows answers the same search the way a one-node cluster would:
// ClusterRank, then the coordinator's arithmetic (integer counts -> IDFs ->
// Score -> Better order by view position), then MaterializeAt for the
// winners only.
func clusterRows(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options) []row {
	t.Helper()
	return clusterRowsBetween(t, e, v, kws, opts, func() {})
}

// clusterRowsBetween is clusterRows with between run after ClusterRank and
// before MaterializeAt.
func clusterRowsBetween(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options, between func()) []row {
	t.Helper()
	ctx := context.Background()
	rk, err := e.ClusterRank(ctx, v, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Matched != len(rk.Candidates) || rk.Stats.ViewSize != rk.ViewSize {
		t.Fatalf("ranking counters disagree: %+v", rk)
	}
	idfs := scoring.IDFsFromCounts(rk.ViewSize, rk.Contains)
	scored := make([]scoring.Scored, len(rk.Candidates))
	for i, c := range rk.Candidates {
		if i > 0 && c.Pos <= rk.Candidates[i-1].Pos {
			t.Fatalf("candidates out of view order at %d", i)
		}
		st := scoring.Stats{TFs: c.TFs, ByteLen: c.ByteLen}
		scored[i] = scoring.Scored{Stats: st, Score: scoring.Score(st, idfs), Index: c.Pos}
	}
	sort.Slice(scored, func(i, j int) bool { return scoring.Better(scored[i], scored[j]) })
	if opts.K > 0 && len(scored) > opts.K {
		scored = scored[:opts.K]
	}
	positions := make([]int, len(scored))
	for i, sc := range scored {
		positions[i] = sc.Index
	}
	between()
	mats, _, err := e.MaterializeAt(ctx, v, kws, opts, positions)
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != len(positions) {
		t.Fatalf("materialized %d of %d positions", len(mats), len(positions))
	}
	var rows []row
	for i, m := range mats {
		if m.Pos != positions[i] {
			t.Fatalf("materialized position %d, asked for %d", m.Pos, positions[i])
		}
		rows = append(rows, row{i + 1, math.Float64bits(scored[i].Score), fmt.Sprint(scored[i].Stats.TFs),
			m.Element.XMLString(""), m.Snippet})
	}
	return rows
}

func mustEqualRows(t *testing.T, label string, want, got []row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d differs\nwant %+v\ngot  %+v", label, i, want[i], got[i])
		}
	}
}

// TestEveryPathRunsTheSamePipeline drives the three ways a search reaches
// the pipeline — Search, ResultsSeq, and the cluster pair ClusterRank ->
// MaterializeAt — at a pool of one and a pool of four, and requires
// identical ranks, score bits, TF maps, XML and snippets from all of them.
func TestEveryPathRunsTheSamePipeline(t *testing.T) {
	e := eqEngine(t, 41, 14)
	kwSets := [][]string{{"copper"}, {"copper", "quartz"}, {"Survey", "copper", "quartz"}, nil}
	var reference [][]row
	for _, par := range []int{1, 4} {
		cell := 0
		for vi, text := range testkit.EqViews {
			v, err := e.CompileView(text)
			if err != nil {
				t.Fatal(err)
			}
			for _, kws := range kwSets {
				for _, opts := range []core.Options{
					{Parallelism: par},
					{Parallelism: par, K: 3},
					{Parallelism: par, Disjunctive: true, K: 5},
				} {
					label := fmt.Sprintf("view %d kws %v opts %+v", vi, kws, opts)
					want := searchRows(t, e, v, kws, opts, 0)
					mustEqualRows(t, label+" ResultsSeq", want, seqRows(t, e, v, kws, opts, 0))
					mustEqualRows(t, label+" cluster", want, clusterRows(t, e, v, kws, opts))
					if par == 1 {
						reference = append(reference, want)
					} else {
						mustEqualRows(t, label+" vs pool of one", reference[cell], want)
					}
					cell++
				}
			}
		}
	}
	nonEmpty := 0
	for _, rows := range reference {
		if len(rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(reference)/2 {
		t.Fatalf("only %d of %d cells matched anything; the corpus no longer exercises the pipeline", nonEmpty, len(reference))
	}
}

// TestUnpartitionableViews: a view without an outer for clause to partition
// over is evaluated whole locally (matching the Baseline comparator) and
// refused by both cluster primitives.
func TestUnpartitionableViews(t *testing.T) {
	e := eqEngine(t, 43, 8)
	for name, text := range map[string]string{
		"not a FLWOR": `fn:doc(part-00.xml)/books//article[fm/yr > 1990]`,
		"leading let": `let $as := fn:doc(part-00.xml)/books//article
		                for $a in $as where $a/fm/yr > 1990
		                return <art>{$a/fm/tl}, {$a/bdy}</art>`,
	} {
		v, err := e.CompileView(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kws := []string{"copper"}
		want, _, err := baseline.Search(e, v, kws, core.Options{Disjunctive: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: baseline matched nothing", name)
		}
		for _, par := range []int{1, 4} {
			opts := core.Options{Parallelism: par, Disjunctive: true}
			got := searchRows(t, e, v, kws, opts, 0)
			if len(got) != len(want) {
				t.Fatalf("%s: %d results at pool %d, baseline has %d", name, len(got), par, len(want))
			}
			for i, r := range want {
				// Baseline cuts no snippets; everything else must agree.
				w := rowOf(r)
				w.snippet = got[i].snippet
				if w != got[i] {
					t.Fatalf("%s: result %d differs from baseline at pool %d\nwant %+v\ngot  %+v", name, i, par, w, got[i])
				}
			}
			mustEqualRows(t, name+" ResultsSeq", got, seqRows(t, e, v, kws, opts, 0))
			if _, err := e.ClusterRank(context.Background(), v, kws, opts); !errors.Is(err, core.ErrUnpartitionableView) {
				t.Fatalf("%s: ClusterRank error = %v, want ErrUnpartitionableView", name, err)
			}
			if _, _, err := e.MaterializeAt(context.Background(), v, kws, opts, []int{0}); !errors.Is(err, core.ErrUnpartitionableView) {
				t.Fatalf("%s: MaterializeAt error = %v, want ErrUnpartitionableView", name, err)
			}
		}
	}
}

// TestFailedPredicateLeafKeepsItsValue: a leaf that the where clause
// compares and the return clause emits as content carries its value in
// the PDT even when it fails the comparison, so the evaluator re-checks
// the where clause against the base value, as Baseline does, and not
// against an empty one. Before the fix the first view answered two
// results where Baseline answers none.
func TestFailedPredicateLeafKeepsItsValue(t *testing.T) {
	e := core.New(store.NewSharded(2))
	if err := e.AddXML("side.xml", `<a><x>copper copper</x><x>copper copper</x></a>`); err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper"}
	for text, size := range map[string]int{
		`for $v in fn:doc(side.xml) where $v/a/x < 1 return $v/a/x`:               0,
		`for $v in fn:doc(side.xml) where $v/a/x = "copper copper" return $v/a/x`: 2,
	} {
		v, err := e.CompileView(text)
		if err != nil {
			t.Fatal(err)
		}
		want := baselineRows(t, e, v, kws, core.Options{})
		if len(want) != size {
			t.Fatalf("%s: Baseline has %d results, want %d", text, len(want), size)
		}
		for _, par := range []int{1, 4} {
			opts := core.Options{Parallelism: par}
			mustMatchReference(t, fmt.Sprintf("%s pool %d", text, par), want, searchRows(t, e, v, kws, opts, 0))
			mustMatchReference(t, fmt.Sprintf("%s whole view pool %d", text, par), want, searchRows(t, e, core.WholeViewCopy(v), kws, opts, 0))
		}
		tj, _, err := gtp.Search(e, v, kws, core.Options{})
		if err != nil || len(tj) != size {
			t.Fatalf("%s: GTP has %d results (%v), want %d", text, len(tj), err, size)
		}
	}
}

// TestOffsetsAgreeAcrossDeliveryPaths: SearchPage and ResultsSeq share one
// winner loop, so every offset — negative, inside, at and past the end of
// the ranking — yields the same ranks, XML and snippets from both.
func TestOffsetsAgreeAcrossDeliveryPaths(t *testing.T) {
	e := eqEngine(t, 47, 10)
	v, err := e.CompileView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper"}
	full := searchRows(t, e, v, kws, core.Options{}, 0)
	n := len(full)
	if n < 3 {
		t.Fatalf("corpus yields only %d results", n)
	}
	for _, offset := range []int{-1, 0, 1, n - 1, n, n + 1} {
		want := full[min(max(offset, 0), n):]
		mustEqualRows(t, fmt.Sprintf("SearchPage offset %d", offset), want, searchRows(t, e, v, kws, core.Options{}, offset))
		mustEqualRows(t, fmt.Sprintf("ResultsSeq offset %d", offset), want, seqRows(t, e, v, kws, core.Options{}, offset))
	}
}

// TestIndexProbesNeverDecrease: the served-probe counters are cumulative on
// both backends — replacing or deleting a document must not take its
// indices' counts out of the totals. Along the way it pins the store's
// index seam on both: a replace publishes the replacement's indices, a
// duplicate registration publishes nothing, and a deleted name has none.
func TestIndexProbesNeverDecrease(t *testing.T) {
	heap := eqEngine(t, 53, 6)
	dir := t.TempDir()
	heap.RLock()
	_, err := diskstore.Create(heap.Store, dir, diskstore.Options{}, nil)
	heap.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.OpenWith(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for name, e := range map[string]*core.Engine{"heap": heap, "disk": core.New(ds)} {
		v, err := e.CompileView(testkit.EqViews[0])
		if err != nil {
			t.Fatal(err)
		}
		lastProbes, lastLookups := e.IndexProbes()
		step := func(what string) {
			t.Helper()
			probes, lookups := e.IndexProbes()
			if probes < lastProbes || lookups < lastLookups {
				t.Fatalf("%s: IndexProbes went backwards after %s: %d/%d -> %d/%d",
					name, what, lastProbes, lastLookups, probes, lookups)
			}
			lastProbes, lastLookups = probes, lookups
		}
		search := func() {
			t.Helper()
			if _, _, err := e.Search(v, []string{"copper", "quartz"}, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		// hasWord reports whether name's stored inverted index lists word.
		hasWord := func(name, word string) bool {
			t.Helper()
			_, iix, err := e.Store.StoredIndices(name)
			if err != nil {
				t.Fatalf("%s: StoredIndices(%s): %v", name, name, err)
			}
			return iix.Lookup(word).Len() > 0
		}
		search()
		step("search")
		if lastProbes == 0 || lastLookups == 0 {
			t.Fatalf("%s: a search served no index probes (%d/%d)", name, lastProbes, lastLookups)
		}
		if hasWord("part-00.xml", "zyzzyva") {
			t.Fatalf("%s: the original part-00.xml already lists the replacement's word", name)
		}
		if err := e.ReplaceXML("part-00.xml", "<books>"+testkit.RandomArticle(rand.New(rand.NewSource(1)), 1)+"<note>zyzzyva</note></books>"); err != nil {
			t.Fatal(err)
		}
		if !hasWord("part-00.xml", "zyzzyva") {
			t.Fatalf("%s: after the replace, StoredIndices still returns the old document's indices", name)
		}
		step("replace")
		search()
		step("search after replace")

		before, _ := e.Store.Info("part-02.xml")
		dup, err := xmltree.ParseString("<books><note>zyzzyvb</note></books>", "part-02.xml", e.Store.ReserveID())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Store.RegisterIndexed(dup, pathindex.Build(dup), invindex.Build(dup)); !errors.Is(err, store.ErrDuplicateName) {
			t.Fatalf("%s: duplicate RegisterIndexed = %v, want ErrDuplicateName", name, err)
		}
		if after, _ := e.Store.Info("part-02.xml"); after != before || hasWord("part-02.xml", "zyzzyvb") {
			t.Fatalf("%s: a refused duplicate changed what part-02.xml resolves to", name)
		}
		if _, found := e.Store.InfoByID(dup.DocID); found {
			t.Fatalf("%s: a refused duplicate published document ID %d", name, dup.DocID)
		}

		if err := e.Delete("part-01.xml"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Store.StoredIndices("part-01.xml"); !errors.Is(err, store.ErrUnknownName) {
			t.Fatalf("%s: StoredIndices of a deleted name = %v, want ErrUnknownName", name, err)
		}
		step("delete")
		search()
		step("search after delete")
	}
}
