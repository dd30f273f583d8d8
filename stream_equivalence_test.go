// Delivery-path equivalence: for the same (view, keywords, options), the
// one-shot Search, concatenated Offset/TopK pages, and the collected
// Results iterator must be byte-identical — rank, score, TF map, XML,
// snippet — including across cache hits and at every parallelism. The
// paper's determinism theorem (4.1) plus the total ranking order make this
// a hard contract, not a best effort.
package vxml_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vxml"
	"vxml/internal/testkit"
)

// searchPage adapts one-shot Search to testkit.CollectPages.
func searchPage(db *vxml.Database, view *vxml.View, kws []string) func(o *vxml.Options) ([]vxml.Result, error) {
	return func(o *vxml.Options) ([]vxml.Result, error) {
		results, _, err := db.Search(view, kws, o)
		return results, err
	}
}

// streamPage adapts a collected Results stream to testkit.CollectPages.
func streamPage(t *testing.T, label string, db *vxml.Database, view *vxml.View, kws []string) func(o *vxml.Options) ([]vxml.Result, error) {
	return func(o *vxml.Options) ([]vxml.Result, error) {
		return testkit.CollectResults(t, label, db.Results(context.Background(), view, kws, o)), nil
	}
}

// TestStreamAndPaginationEquivalence drives randomized corpora through
// every delivery path: unpaged Search is the reference; Search pages,
// streamed full runs and streamed pages must reproduce it byte for byte,
// sequentially and parallel, uncached and across cache hits.
func TestStreamAndPaginationEquivalence(t *testing.T) {
	trial := 0
	for seed := int64(101); seed <= 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := testkit.BuildEqCorpus(t, rng, 3+rng.Intn(18))
		for vi, viewText := range testkit.EqViews {
			trial++
			view, err := db.DefineView(viewText)
			if err != nil {
				t.Fatalf("seed %d view %d: %v", seed, vi, err)
			}
			kws := testkit.KeywordsFor(rng)
			for _, par := range []int{1, 4} {
				label := fmt.Sprintf("seed=%d view=%d par=%d", seed, vi, par)
				base := vxml.Options{Parallelism: par}
				ref, _, err := db.Search(view, kws, &base)
				if err != nil {
					t.Fatalf("%s reference: %v", label, err)
				}

				streamed := testkit.CollectResults(t, label+" stream", db.Results(context.Background(), view, kws, &base))
				testkit.MustEqualResults(t, label+" stream-vs-search", ref, streamed)

				pageSize := 1 + rng.Intn(4)
				paged := testkit.CollectPages(t, label+" paged", base, pageSize, searchPage(db, view, kws))
				testkit.MustEqualResults(t, fmt.Sprintf("%s pages(%d)-vs-search", label, pageSize), ref, paged)

				streamPaged := testkit.CollectPages(t, label+" stream-paged", base, pageSize, streamPage(t, label+" stream-paged", db, view, kws))
				testkit.MustEqualResults(t, fmt.Sprintf("%s stream-pages(%d)-vs-search", label, pageSize), ref, streamPaged)

				// A bounded one-shot search must equal the ranking prefix.
				if k := min(3, len(ref)); k > 0 {
					topK, _, err := db.Search(view, kws, &vxml.Options{Parallelism: par, TopK: k})
					if err != nil {
						t.Fatalf("%s top-%d: %v", label, k, err)
					}
					testkit.MustEqualResults(t, fmt.Sprintf("%s top-%d-vs-prefix", label, k), ref[:k], topK)
				}
			}
		}
	}
	if trial < 40 {
		t.Fatalf("only %d randomized trials, want >= 40", trial)
	}
}

// TestPaginationAcrossCacheHits pins the cache-composability design: every
// page of one query is sliced from the same cached full entry (the unpaged
// TopK=0 key), so paging is byte-identical whether the entry was populated
// by the unpaged search, by the first page, or served hot — and a cached
// streamed run replays the identical page.
func TestPaginationAcrossCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := testkit.BuildEqCorpus(t, rng, 14)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper", "quartz"}

	ref, _, err := db.Search(view, kws, nil) // uncached reference
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 4 {
		t.Fatalf("corpus too small: %d results", len(ref))
	}

	// Page 2 first: its miss computes and caches the full entry.
	page2, stats, err := db.Search(view, kws, &vxml.Options{Offset: 2, TopK: 2, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource == "cache_hit" {
		t.Fatal("first paged search cannot be a cache hit")
	}
	testkit.MustEqualResults(t, "page2 cold", ref[2:4], page2)

	// Every other window of the same query must now hit that one entry.
	for _, w := range []struct{ off, k int }{{0, 2}, {2, 2}, {1, 3}, {3, 0}} {
		got, stats, err := db.Search(view, kws, &vxml.Options{Offset: w.off, TopK: w.k, Cache: true})
		if err != nil {
			t.Fatal(err)
		}
		if w.off > 0 && stats.PlanSource != "cache_hit" {
			t.Fatalf("window offset=%d top_k=%d missed the shared full entry", w.off, w.k)
		}
		want := ref[w.off:]
		if w.k > 0 && w.k < len(want) {
			want = want[:w.k]
		}
		testkit.MustEqualResults(t, fmt.Sprintf("window offset=%d top_k=%d", w.off, w.k), want, got)

		streamed := testkit.CollectResults(t, "cached stream",
			db.Results(context.Background(), view, kws, &vxml.Options{Offset: w.off, TopK: w.k, Cache: true}))
		testkit.MustEqualResults(t, fmt.Sprintf("cached stream offset=%d top_k=%d", w.off, w.k), want, streamed)
	}

	// The unpaged cached search shares the very same entry.
	full, stats, err := db.Search(view, kws, &vxml.Options{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource != "cache_hit" {
		t.Fatal("unpaged TopK=0 search missed the entry populated by the paged search")
	}
	testkit.MustEqualResults(t, "unpaged cached", ref, full)
}

// TestStreamingDefersMaterialization verifies the point of the streaming
// API: breaking out of the loop early skips the base-data subtree fetches
// of every unconsumed winner (deferred materialization extended to the
// delivery path).
func TestStreamingDefersMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	db := testkit.BuildEqCorpus(t, rng, 16)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper"}
	ref, _, err := db.Search(view, kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 6 {
		t.Fatalf("corpus too small: %d results", len(ref))
	}

	fetchesBefore := db.SubtreeFetches()
	full := testkit.CollectResults(t, "full stream", db.Results(context.Background(), view, kws, nil))
	fullCost := db.SubtreeFetches() - fetchesBefore
	testkit.MustEqualResults(t, "full stream", ref, full)

	fetchesBefore = db.SubtreeFetches()
	var partial []vxml.Result
	for r, err := range db.Results(context.Background(), view, kws, nil) {
		if err != nil {
			t.Fatal(err)
		}
		partial = append(partial, r)
		if len(partial) == 2 {
			break
		}
	}
	partialCost := db.SubtreeFetches() - fetchesBefore
	testkit.MustEqualResults(t, "partial stream prefix", ref[:2], partial)
	if fullCost == 0 {
		t.Fatal("full stream fetched nothing; the view must materialize from base data")
	}
	if partialCost >= fullCost {
		t.Fatalf("early break fetched %d subtrees, full stream %d: materialization was not deferred",
			partialCost, fullCost)
	}

	// An uncached one-shot page ranks only the top Offset+TopK and
	// materializes only its 2-result window — with >= 6 results that is
	// well under half the full run's fetches (prefix skipping included).
	fetchesBefore = db.SubtreeFetches()
	page, _, err := db.Search(view, kws, &vxml.Options{Offset: 1, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	pageCost := db.SubtreeFetches() - fetchesBefore
	testkit.MustEqualResults(t, "uncached page", ref[1:3], page)
	if pageCost > fullCost/2 {
		t.Fatalf("uncached page fetched %d subtrees, full ranking %d: prefix/tail materialization was not skipped",
			pageCost, fullCost)
	}
}
