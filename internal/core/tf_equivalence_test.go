package core_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vxml/internal/core"
	"vxml/internal/docname"
	"vxml/internal/pdt"
	"vxml/internal/scoring"
	"vxml/internal/testkit"
	"vxml/internal/xmltree"
	"vxml/internal/xqeval"
)

// pdtCatalog resolves fn:doc and fn:collection against generated PDTs in
// document-ID order, as the engine's own evaluation catalog does.
type pdtCatalog struct {
	byName  map[string]*xmltree.Document
	ordered []*xmltree.Document
}

func (c *pdtCatalog) Doc(name string) *xmltree.Document { return c.byName[name] }

func (c *pdtCatalog) DocsMatching(pattern string) []*xmltree.Document {
	var out []*xmltree.Document
	for _, d := range c.ordered {
		if docname.Match(pattern, d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// stagedStats is the paper's route to the scoring inputs, through the
// layers' public functions: PDTs generated WITH the keywords (so 'c' nodes
// carry Meta.TFs), the view evaluated over them, and every result's Stats
// read off the payloads by scoring.Collect(FromPDT).
func stagedStats(t *testing.T, e *core.Engine, v *core.View, kws []string) ([]*xmltree.Node, []scoring.Stats) {
	t.Helper()
	e.RLock()
	defer e.RUnlock()
	cat := &pdtCatalog{byName: map[string]*xmltree.Document{}}
	for _, q := range v.QPTs {
		for _, info := range e.Store.InfosMatching(q.Doc) {
			pix, iix := e.PathIndex(info.Name), e.InvIndex(info.Name)
			if pix == nil || iix == nil {
				continue
			}
			// An empty PDT still binds as a root-less document, as the
			// engine's units bind it.
			doc := pdt.Generate(q, pdt.PrepareLists(q, pix, iix, kws), info.Name).Doc
			if doc == nil {
				doc = &xmltree.Document{Name: info.Name, DocID: info.DocID}
			}
			cat.byName[doc.Name] = doc
			cat.ordered = append(cat.ordered, doc)
		}
	}
	slices.SortFunc(cat.ordered, func(a, b *xmltree.Document) int { return cmp.Compare(a.DocID, b.DocID) })
	ev := xqeval.New(cat, v.Funcs)
	ev.HashJoin = true
	items, err := ev.Eval(v.Expr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var results []*xmltree.Node
	for _, it := range items {
		if n, ok := it.(*xmltree.Node); ok {
			results = append(results, n)
		}
	}
	stats := make([]scoring.Stats, len(results))
	for i, res := range results {
		stats[i] = scoring.Collect(res, kws, scoring.FromPDT)
	}
	return results, stats
}

func normalized(kws []string) []string {
	norm := make([]string, len(kws))
	for i, k := range kws {
		norm[i] = core.NormalizeKeyword(k)
	}
	return norm
}

// tfKeywordSets draws keyword sets of 0 to 5 words: planted terms, words
// absent from the corpus, a repeated word and mixed case.
func tfKeywordSets(rng *rand.Rand) [][]string {
	pool := append([]string{"Copper", "QUARTZ", "qwxyz", "title", "inst", "author2"}, testkit.Vocabulary...)
	sets := [][]string{nil, {"copper", "copper"}}
	for n := 1; n <= 5; n++ {
		for rep := 0; rep < 2; rep++ {
			kws := make([]string, n)
			for i := range kws {
				kws[i] = pool[rng.Intn(len(pool))]
			}
			sets = append(sets, kws)
		}
	}
	return sets
}

// mustMatchStaged requires the engine's ranked answer (pruned winners, so
// the comparison needs no base data) to equal the ranking of the staged
// results under the staged Stats: same ranks, score bits, TFs and trees.
func mustMatchStaged(t *testing.T, label string, e *core.Engine, v *core.View, kws []string, opts core.Options, results []*xmltree.Node, stats []scoring.Stats) {
	t.Helper()
	got, st, err := core.RankedPruned(e, v, kws, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := scoring.RankWithStats(results, stats, normalized(kws), !opts.Disjunctive, 0)
	if st.ViewSize != len(results) || st.Matched != want.Matched || len(got) != len(want.Results) {
		t.Fatalf("%s: engine has %d results, %d matched, %d ranked; staged %d, %d, %d",
			label, st.ViewSize, st.Matched, len(got), len(results), want.Matched, len(want.Results))
	}
	for i, w := range want.Results {
		g := got[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) || fmt.Sprint(g.Stats.TFs) != fmt.Sprint(w.Stats.TFs) ||
			g.Result.XMLString("") != w.Result.XMLString("") {
			t.Fatalf("%s: rank %d differs\nengine score %v tfs %v %s\nstaged score %v tfs %v %s", label, i+1,
				g.Score, g.Stats.TFs, g.Result.XMLString(""), w.Score, w.Stats.TFs, w.Result.XMLString(""))
		}
	}
}

// TestCollectDerivesThePDTTermFrequencies is Theorem 4.1(b) for the engine's
// TF derivation: its PDTs are keyword-free and collect sums each result's
// term frequencies over Dewey ranges of the candidates' posting lists, which
// must give exactly the Stats that PDT generation with keywords attaches and
// scoring.Collect(FromPDT) reads — for every view shape, 0 to 5 keywords and
// both semantics. View 1's results wrap 'c' nodes from two documents.
func TestCollectDerivesThePDTTermFrequencies(t *testing.T) {
	e := eqEngine(t, 59, 12)
	ctx := context.Background()
	matchedCells := 0
	for vi, text := range testkit.EqViews {
		v, err := e.CompileView(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, kws := range tfKeywordSets(rand.New(rand.NewSource(int64(vi)))) {
			results, stats := stagedStats(t, e, v, normalized(kws))
			for _, disjunctive := range []bool{false, true} {
				label := fmt.Sprintf("view %d kws %v disjunctive %v", vi, kws, disjunctive)
				mustMatchStaged(t, label, e, v, kws, core.Options{Disjunctive: disjunctive, Parallelism: 1 + 3*(vi%2)}, results, stats)
			}
			// Every result's Stats, matching or not, through the cluster
			// primitive (the one exported route that reports ByteLen).
			rk, err := e.ClusterRank(ctx, v, kws, core.Options{Disjunctive: true})
			if err != nil {
				t.Fatal(err)
			}
			if rk.ViewSize != len(results) {
				t.Fatalf("view %d kws %v: ClusterRank sees %d results, staged %d", vi, kws, rk.ViewSize, len(results))
			}
			reported := map[int]bool{}
			for _, c := range rk.Candidates {
				reported[c.Pos] = true
				if fmt.Sprint(c.TFs) != fmt.Sprint(stats[c.Pos].TFs) || c.ByteLen != stats[c.Pos].ByteLen {
					t.Fatalf("view %d kws %v: result %d has Stats %v/%d, staged %v/%d",
						vi, kws, c.Pos, c.TFs, c.ByteLen, stats[c.Pos].TFs, stats[c.Pos].ByteLen)
				}
			}
			for pos, st := range stats {
				if !reported[pos] && scoring.Satisfies(st.TFs, false) {
					t.Fatalf("view %d kws %v: result %d matches on the staged route (TFs %v) but not in the engine", vi, kws, pos, st.TFs)
				}
			}
			if len(rk.Candidates) > 0 {
				matchedCells++
			}
		}
	}
	if matchedCells < 20 {
		t.Fatalf("only %d cells matched anything; the corpus no longer exercises the derivation", matchedCells)
	}
}
