package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"vxml/internal/catalog"
	"vxml/internal/store"
	"vxml/internal/xmltree"
)

// raceDetector reports a build with the race detector (race_test.go).
var raceDetector bool

// newCollectionEngine loads n small part documents whose bodies embed the
// doc index, so result provenance is visible in the output.
func newCollectionEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := New(store.New())
	for i := 0; i < n; i++ {
		xml := fmt.Sprintf("<books><article><tl>study %d</tl><bdy>xml search doc%d</bdy></article></books>", i, i)
		if err := e.AddXML(fmt.Sprintf("part-%d.xml", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

const collectionView = `for $a in fn:collection("part-*")/books//article
return <art>{$a/tl}, {$a/bdy}</art>`

func TestCollectionViewExpandsInDocumentOrder(t *testing.T) {
	e := newCollectionEngine(t, 5)
	v, err := e.CompileView(collectionView)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := e.Search(v, []string{"xml"}, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d, want 5", len(results))
	}
	if stats.Candidates != 5 {
		t.Errorf("Candidates = %d, want 5", stats.Candidates)
	}
	// Identical scores everywhere: rank order must be ingest order.
	for i, r := range results {
		if want := fmt.Sprintf("doc%d", i); !strings.Contains(r.Element.XMLString(""), want) {
			t.Errorf("result %d is not from %s: %s", i, want, r.Element.XMLString(""))
		}
	}
}

func TestCollectionPatternCompilesAgainstEmptyCorpus(t *testing.T) {
	e := New(store.New())
	v, err := e.CompileView(collectionView)
	if err != nil {
		t.Fatalf("pattern view must compile with no matching documents: %v", err)
	}
	results, _, err := e.Search(v, []string{"xml"}, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("search over empty collection = %v results, err %v", len(results), err)
	}
	// A literal reference to a missing document still fails at compile.
	if _, err := e.CompileView(`for $a in fn:doc(missing.xml)/books//article return $a`); err == nil {
		t.Fatal("literal unknown document must not compile")
	}
}

func TestOverlappingDocReferencesRejected(t *testing.T) {
	e := newCollectionEngine(t, 3)
	_, err := e.CompileView(`for $a in fn:collection("part-*")/books//article
	 for $b in fn:doc(part-0.xml)/books//article
	 return <pair>{$a/tl}, {$b/tl}</pair>`)
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("overlapping pattern/literal references must be refused at compile time, got %v", err)
	}
	// Two patterns overlap only over the corpus: the search refuses them.
	v, err := e.CompileView(`for $a in fn:collection("part-*")/books//article
	 for $b in fn:collection("part-0*")/books//article
	 return <pair>{$a/tl}, {$b/tl}</pair>`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = e.Search(v, []string{"xml"}, Options{})
	if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), "matches both") {
		t.Fatalf("overlapping pattern/pattern references must be refused at search time, got %v", err)
	}
}

func TestExplainMentionsCollectionPattern(t *testing.T) {
	e := newCollectionEngine(t, 4)
	v, err := e.CompileView(collectionView)
	if err != nil {
		t.Fatal(err)
	}
	out := e.Explain(v, []string{"xml"})
	if !strings.Contains(out, "collection pattern: 4 matching document(s)") {
		t.Errorf("Explain missing pattern note:\n%s", out)
	}
}

// allocsPerCandidate is what one more candidate of a collection view costs
// a search that ranks locally, object by object: EvalUnit's exact-size
// result slice (1); the unit's stats slab, every result's term
// frequencies and byte length (1); and detach's slab of the copies of the
// results that match the keywords, each a Meta node copied without
// children (1). The unit's PDT, its document and its document node cost
// nothing: they live in the worker's arena and the evaluator, reused from
// unit to unit; nor does the where clause's literal, boxed once at parse
// time. The results' scoring.Stats are one array per search.
const allocsPerCandidate = 3

// clusterAllocsPerCandidate is what one more candidate costs ClusterRank,
// which reads only the results' stats and owners: the result slice and the
// stats slab, and no detach slab.
const clusterAllocsPerCandidate = 2

// allocsPerExtraCandidate measures what one more candidate of a collection
// selection view costs search, run over an engine of 64 parts and one of
// 128. Every part is alike, so the difference between the two is 64
// candidates' worth, plus the growth of the per-search tables that append
// per candidate (the plan's units, the store's matching documents): a
// tenth of an allocation per candidate covers those. search runs once
// first, to fill the QPT's memos and warm a pooled generator and arena.
func allocsPerExtraCandidate(t *testing.T, search func(t *testing.T, e *Engine, v *View)) float64 {
	t.Helper()
	const view = `for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1990 return $a`
	perSearch := func(parts int) float64 {
		e := New(store.New())
		for i := 0; i < parts; i++ {
			xml := fmt.Sprintf(`<books><article><fm><tl>study %d</tl><au>author</au><yr>1995</yr></fm><bdy>xml search</bdy></article>`+
				`<article><fm><tl>note %d</tl><au>author</au><yr>1989</yr></fm><bdy>xml index</bdy></article></books>`, i, i)
			if err := e.AddXML(fmt.Sprintf("part-%03d.xml", i), xml); err != nil {
				t.Fatal(err)
			}
		}
		v, err := e.CompileView(view)
		if err != nil {
			t.Fatal(err)
		}
		search(t, e, v)
		return testing.AllocsPerRun(20, func() { search(t, e, v) })
	}
	a64, a128 := perSearch(64), perSearch(128)
	t.Logf("%v allocations over 64 parts, %v over 128", a64, a128)
	return (a128 - a64) / 64
}

// TestPerDocumentAllocationsPerCandidate: a collection view's search costs
// allocsPerCandidate allocations per candidate document, whatever the
// candidate count: list preparation, the lookups and the unit's plumbing
// allocate nothing per candidate once warm. The race detector drops pooled
// generators and arenas at random, and a dropped one re-grows its scratch,
// so the count holds only without it (CI runs the allocation tests without
// the detector too).
func TestPerDocumentAllocationsPerCandidate(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	per := allocsPerExtraCandidate(t, func(t *testing.T, e *Engine, v *View) {
		results, _, err := e.Search(v, []string{"xml", "search"}, Options{K: 10, Parallelism: 1})
		if err != nil || len(results) != 10 {
			t.Fatalf("%d results, err %v", len(results), err)
		}
	})
	if per > allocsPerCandidate+0.1 {
		t.Errorf("%.2f allocations per extra candidate, want %d", per, allocsPerCandidate)
	}
}

// TestPerDocumentClusterRankAllocationsPerCandidate: ClusterRank detaches
// no result, so a candidate costs it clusterAllocsPerCandidate
// allocations, whatever the candidate count.
func TestPerDocumentClusterRankAllocationsPerCandidate(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	per := allocsPerExtraCandidate(t, func(t *testing.T, e *Engine, v *View) {
		rk, err := e.ClusterRank(context.Background(), v, []string{"xml", "search"}, Options{Parallelism: 1})
		if err != nil || rk.Matched == 0 {
			t.Fatalf("%v matched, err %v", rk, err)
		}
	})
	if per > clusterAllocsPerCandidate+0.1 {
		t.Errorf("%.2f allocations per extra candidate, want %d", per, clusterAllocsPerCandidate)
	}
}

// allocsPerExtraResult measures what one more view result costs search,
// run over an engine whose one document, shelf.xml, holds 128 articles and
// over one whose shelf holds 384: the difference is 256 results' worth, and
// four result chunks'. search runs once first, to fill the QPT's memos,
// warm the pools and record the view's skeleton.
func allocsPerExtraResult(t *testing.T, view string, search func(t *testing.T, e *Engine, v *View)) float64 {
	t.Helper()
	return perExtraResult(t, view, search, func(f func()) float64 { return testing.AllocsPerRun(20, f) })
}

// perExtraResult is allocsPerExtraResult with the cost measured by
// measure, which runs f a number of times and returns its mean cost.
func perExtraResult(t *testing.T, view string, search func(t *testing.T, e *Engine, v *View), measure func(f func()) float64) float64 {
	t.Helper()
	perSearch := func(articles int) float64 {
		e := New(store.New())
		var b strings.Builder
		b.WriteString("<books>")
		for i := 0; i < articles; i++ {
			fmt.Fprintf(&b, `<article><fm><tl>study %d</tl><yr>%d</yr></fm><bdy>xml search</bdy></article>`, i, 1980+i%20)
		}
		b.WriteString("</books>")
		if err := e.AddXML("shelf.xml", b.String()); err != nil {
			t.Fatal(err)
		}
		v, err := e.CompileView(view)
		if err != nil {
			t.Fatal(err)
		}
		search(t, e, v)
		return measure(func() { search(t, e, v) })
	}
	a128, a384 := perSearch(128), perSearch(384)
	t.Logf("%v over 128 results, %v over 384", a128, a384)
	return (a384 - a128) / 256
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean number of bytes
// 20 runs of f allocate, after a warming run, at GOMAXPROCS 1.
func bytesPerRun(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 20
}

// slabBytesPerNode is what one PDT node costs generation into fresh
// memory: the node in the arena's node slab and its pointer in the child
// slab.
const slabBytesPerNode = int(unsafe.Sizeof(xmltree.Node{}) + unsafe.Sizeof((*xmltree.Node)(nil)))

// TestWholeViewPooledPDTAllocBytesPerArticle: a warm whole-view search
// generates its side document's PDT into a pooled arena, so one more
// article of the side document costs it fewer bytes than that article's
// PDT nodes would take in fresh slabs (slabBytesPerNode each). The
// keywords match nothing, so no result is detached, and what an article
// costs is its result's share of the pass's per-result arrays and its
// binding's evaluation. Generation into a fresh arena per search, as
// before side PDTs were pooled, paid the slab bytes on top: 595 bytes per
// article on this view, against a bound of 416 (four PDT nodes per
// article); pooled, it costs 177. Like the other pins it holds only
// without the race detector, which drops pooled arenas at random.
func TestWholeViewPooledPDTAllocBytesPerArticle(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const view = `for $a in fn:doc(shelf.xml)/books//article where $a/fm/yr > 1000 return $a/bdy`
	nodes := map[int]int{} // PDT nodes by view size
	per := perExtraResult(t, view, func(t *testing.T, e *Engine, v *View) {
		results, stats, err := e.Search(v, []string{"nowhere"}, Options{K: 10, Parallelism: 1})
		if err != nil || len(results) != 0 {
			t.Fatalf("%d results, err %v", len(results), err)
		}
		nodes[stats.ViewSize] = stats.PDTNodes
	}, bytesPerRun)
	bound := float64((nodes[384]-nodes[128])/256) * float64(slabBytesPerNode)
	t.Logf("%.0f bytes per extra article, bound %.0f", per, bound)
	if per >= bound {
		t.Errorf("%.0f bytes per extra article, want fewer than its PDT nodes' fresh slab bytes, %.0f", per, bound)
	}
}

// wholeViewAllocsPerResult is what one more result of a whole-view view
// partitioned by outer binding costs a search that ranks locally, object
// by object: EvalTail's exact copy of the binding's value (1). Collection
// allocates per chunk, not per result: a chunk's stats slab holds every
// result's term frequencies and byte length, and detach's slab the copies
// of its kept results (the side document's PDT lives in a pooled arena),
// and the binding chunks are workers*4 whatever the view's size, as are
// the search's results, rstats and owners arrays, one each. The chunks'
// result slices, grown by doubling, add a twentieth of an allocation per
// result.
const wholeViewAllocsPerResult = 1

// rewriteAllocsPerChunk is what one more result chunk (resultChunk
// results) of a skeleton rewrite costs: the chunk's stats slab (1). Its
// results are the skeleton's own, and the search's rstats is one array.
const rewriteAllocsPerChunk = 1

// TestWholeViewCollectAllocationsPerChunk: collecting the results of a
// whole-view search, and of a skeleton rewrite, allocates per chunk, not
// per result. Like the other pins it holds only without the race detector.
func TestWholeViewCollectAllocationsPerChunk(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const view = `for $a in fn:doc(shelf.xml)/books//article return $a`
	per := allocsPerExtraResult(t, view, func(t *testing.T, e *Engine, v *View) {
		if results, _, err := e.Search(v, []string{"xml"}, Options{K: 10, Parallelism: 1}); err != nil || len(results) != 10 {
			t.Fatalf("%d results, err %v", len(results), err)
		}
	})
	if per > wholeViewAllocsPerResult+0.05 {
		t.Errorf("direct: %.3f allocations per extra result, want %d", per, wholeViewAllocsPerResult)
	}
	recorded := map[*Engine]bool{} // the first search records the skeleton
	per = allocsPerExtraResult(t, view, func(t *testing.T, e *Engine, v *View) {
		results, stats, err := e.Search(v, []string{"search"}, Options{K: 10, Parallelism: 1, Plan: true})
		if err != nil || len(results) != 10 || recorded[e] && stats.PlanSource != catalog.PlanRewritten {
			t.Fatalf("%d results (%+v), err %v", len(results), stats, err)
		}
		recorded[e] = true
	})
	if per*resultChunk > rewriteAllocsPerChunk+0.1 {
		t.Errorf("rewrite: %.2f allocations per extra result chunk, want %d", per*resultChunk, rewriteAllocsPerChunk)
	}
}
