// Pool-size equivalence: the worker pool must be a pure execution
// strategy. For every corpus, view and option set, search results at
// Parallelism >= 2 must be byte-identical — rank, score, TF map,
// materialized XML and snippet — to the same search at a pool of one, with
// score ties broken deterministically by view position (document ID order
// for collection views). These tests drive 50+ randomized corpora through
// ranked, unranked, conjunctive and disjunctive searches over collection
// patterns, fixed-document joins and mixed views.
package vxml_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vxml"
	"vxml/internal/testkit"
)

// TestParallelSequentialEquivalence is the deterministic-ordering
// regression test: across 72 randomized corpora (18 seeds x 4 view
// shapes), parallel search returns byte-identical ranked and unranked
// results to a pool of one, and the result-affecting stats counters
// agree.
func TestParallelSequentialEquivalence(t *testing.T) {
	trial := 0
	for seed := int64(1); seed <= 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := testkit.BuildEqCorpus(t, rng, 3+rng.Intn(28))
		for vi, viewText := range testkit.EqViews {
			trial++
			view, err := db.DefineView(viewText)
			if err != nil {
				t.Fatalf("seed %d view %d: %v", seed, vi, err)
			}
			kws := testkit.KeywordsFor(rng)
			for _, topK := range []int{0, 3} {
				for _, disj := range []bool{false, true} {
					label := fmt.Sprintf("seed=%d view=%d k=%d disj=%v", seed, vi, topK, disj)
					base := vxml.Options{TopK: topK, Disjunctive: disj, Parallelism: 1}
					seq, seqStats, err := db.Search(view, kws, &base)
					if err != nil {
						t.Fatalf("%s sequential: %v", label, err)
					}
					for _, par := range []int{2, 4} {
						o := base
						o.Parallelism = par
						got, gotStats, err := db.Search(view, kws, &o)
						if err != nil {
							t.Fatalf("%s parallel(%d): %v", label, par, err)
						}
						testkit.MustEqualResults(t, fmt.Sprintf("%s par=%d", label, par), seq, got)
						if seqStats.PDTNodes != gotStats.PDTNodes ||
							seqStats.ViewSize != gotStats.ViewSize ||
							seqStats.Matched != gotStats.Matched ||
							seqStats.BaseData != gotStats.BaseData {
							t.Fatalf("%s par=%d: counter stats diverge: %+v vs %+v", label, par, seqStats, gotStats)
						}
					}
				}
			}
		}
	}
	if trial < 50 {
		t.Fatalf("only %d randomized trials, want >= 50", trial)
	}
}

// TestCollectionViewAgainstBaseline cross-checks the collection-pattern
// feature itself: the Efficient pipeline (parallel) must agree with the
// materialize-everything Baseline pipeline on scores, order and content
// (Theorem 4.1 extended to collections).
func TestCollectionViewAgainstBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := testkit.BuildEqCorpus(t, rng, 17)
	for vi, viewText := range testkit.EqViews[:2] {
		view, err := db.DefineView(viewText)
		if err != nil {
			t.Fatalf("view %d: %v", vi, err)
		}
		kws := []string{"copper", "quartz"}
		eff, _, err := db.Search(view, kws, &vxml.Options{TopK: 5})
		if err != nil {
			t.Fatalf("view %d efficient: %v", vi, err)
		}
		base, _, err := db.Search(view, kws, &vxml.Options{TopK: 5, Approach: vxml.Baseline})
		if err != nil {
			t.Fatalf("view %d baseline: %v", vi, err)
		}
		testkit.MustEqualResultsOpt(t, fmt.Sprintf("view %d efficient-vs-baseline", vi), eff, base, false)
		if len(eff) == 0 {
			t.Fatalf("view %d: expected results", vi)
		}
	}
}

// TestParallelismSharesCacheEntries asserts Parallelism is not part of the
// cache identity: a result cached by a sequential search is served to a
// parallel one and vice versa.
func TestParallelismSharesCacheEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := testkit.BuildEqCorpus(t, rng, 9)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper"}
	first, _, err := db.Search(view, kws, &vxml.Options{TopK: 4, Cache: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cached, stats, err := db.Search(view, kws, &vxml.Options{TopK: 4, Cache: true, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource != "cache_hit" {
		t.Fatalf("parallel search missed the cache entry stored by the sequential search")
	}
	testkit.MustEqualResults(t, "cache hit across parallelism", first, cached)
}
