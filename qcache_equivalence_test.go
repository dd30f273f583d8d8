package vxml_test

// Property-style equivalence tests for the query-result cache: for
// randomized keyword sets over the benchkit corpus, Search with caching
// enabled must return byte-identical results, scores and rank order to the
// uncached path and to the materialize-then-search Baseline — including
// after the cache is invalidated by a mid-run document Add.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/testkit"
)

func TestCacheEquivalenceRandomized(t *testing.T) {
	db, view := testkit.CorpusDB(t, 7)
	rng := rand.New(rand.NewSource(20260730))
	for trial := 0; trial < 12; trial++ {
		kws := testkit.RandomKeywords(rng)
		opts := vxml.Options{TopK: []int{0, 5}[rng.Intn(2)], Disjunctive: rng.Intn(2) == 1}
		label := fmt.Sprintf("trial %d (%v, k=%d, disj=%v)", trial, kws, opts.TopK, opts.Disjunctive)

		uncached := opts
		uncached.Cache = false
		plain, plainStats, err := db.Search(view, kws, &uncached)
		if err != nil {
			t.Fatalf("%s: uncached: %v", label, err)
		}
		if plainStats.PlanSource == "cache_hit" {
			t.Fatalf("%s: uncached search reported a cache hit", label)
		}

		cached := opts
		cached.Cache = true
		cold, coldStats, err := db.Search(view, kws, &cached)
		if err != nil {
			t.Fatalf("%s: cache miss path: %v", label, err)
		}
		if coldStats.PlanSource == "cache_hit" {
			t.Fatalf("%s: first cached search cannot hit", label)
		}
		warm, warmStats, err := db.Search(view, kws, &cached)
		if err != nil {
			t.Fatalf("%s: cache hit path: %v", label, err)
		}
		if warmStats.PlanSource != "cache_hit" {
			t.Fatalf("%s: repeated identical search missed the cache", label)
		}

		if a, b := testkit.RenderResults(plain), testkit.RenderResults(cold); a != b {
			t.Fatalf("%s: uncached vs cache-miss results differ", label)
		}
		if a, b := testkit.RenderResults(plain), testkit.RenderResults(warm); a != b {
			t.Fatalf("%s: uncached vs cache-hit results differ", label)
		}
		if !testkit.SameTF(plain, warm) || !testkit.SameTF(plain, cold) {
			t.Fatalf("%s: TF maps differ between cached and uncached paths", label)
		}

		// Theorem 4.1 transitivity: the cached response also matches the
		// materialize-then-search Baseline (which computes no snippets, so
		// compare ranks, scores and XML only).
		basOpts := opts
		basOpts.Approach = vxml.Baseline
		bas, _, err := db.Search(view, kws, &basOpts)
		if err != nil {
			t.Fatalf("%s: baseline: %v", label, err)
		}
		if len(bas) != len(warm) {
			t.Fatalf("%s: baseline %d results, cached %d", label, len(bas), len(warm))
		}
		for i := range bas {
			if bas[i].Rank != warm[i].Rank {
				t.Fatalf("%s: rank[%d] baseline %d vs cached %d", label, i, bas[i].Rank, warm[i].Rank)
			}
			if math.Abs(bas[i].Score-warm[i].Score) > 1e-9 {
				t.Fatalf("%s: score[%d] baseline %v vs cached %v", label, i, bas[i].Score, warm[i].Score)
			}
			if bas[i].XML != warm[i].XML {
				t.Fatalf("%s: xml[%d] differs between baseline and cached", label, i)
			}
		}
	}
	if cs := db.CacheStats(); cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("cache counters not exercised: %+v", cs)
	}
}

func TestCacheInvalidationOnMidRunAdd(t *testing.T) {
	db, view := testkit.CorpusDB(t, 11)
	kws := []string{"data", "system"}
	opts := &vxml.Options{TopK: 5, Cache: true}

	before, _, err := db.Search(view, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := db.Search(view, kws, opts); err != nil || st.PlanSource != "cache_hit" {
		t.Fatalf("warm search: err=%v, hit=%v", err, st.PlanSource == "cache_hit")
	}

	// A mid-run ingest must expire the entry even though the view does not
	// reference the new document.
	db.MustAdd("midrun.xml", "<extra><t>data system filler</t></extra>")
	after, afterStats, err := db.Search(view, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if afterStats.PlanSource == "cache_hit" {
		t.Fatal("search after Add served a stale cache entry")
	}
	if a, b := testkit.RenderResults(before), testkit.RenderResults(after); a != b {
		t.Fatal("results changed across an Add that does not affect the view")
	}
	// And the recomputed entry is served on the next repeat.
	if _, st, err := db.Search(view, kws, opts); err != nil || st.PlanSource != "cache_hit" {
		t.Fatalf("re-warmed search: err=%v, hit=%v", err, st.PlanSource == "cache_hit")
	}
	cs := db.CacheStats()
	if cs.Invalidations == 0 {
		t.Errorf("no invalidations recorded: %+v", cs)
	}
}

// TestCacheHitRespectsCallerKeywordForm checks that a cache hit produced by
// one caller's keyword casing is re-expressed in another caller's casing:
// both must see exactly what the uncached path would have returned to them.
func TestCacheHitRespectsCallerKeywordForm(t *testing.T) {
	db, view := testkit.CorpusDB(t, 7)
	opts := &vxml.Options{TopK: 3, Cache: true}
	upper, _, err := db.Search(view, []string{"DATA", " System "}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(upper) == 0 {
		t.Fatal("no results to compare")
	}
	lower, st, err := db.Search(view, []string{"data", "system"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSource != "cache_hit" {
		t.Fatal("differently-cased identical keyword set missed the cache")
	}
	plain, _, err := db.Search(view, []string{"data", "system"}, &vxml.Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range lower {
		for _, k := range []string{"data", "system"} {
			if lower[i].TF[k] != plain[i].TF[k] {
				t.Errorf("result %d: TF[%q] = %d from cache, %d uncached", i, k, lower[i].TF[k], plain[i].TF[k])
			}
		}
		if _, leaked := lower[i].TF["DATA"]; leaked {
			t.Errorf("result %d: cache hit leaked the inserting caller's keyword casing", i)
		}
		if upper[i].TF["DATA"] != plain[i].TF["data"] {
			t.Errorf("result %d: original caller's TF[DATA] = %d, want %d", i, upper[i].TF["DATA"], plain[i].TF["data"])
		}
	}
}

// TestCacheHitEquivalentUnderKeywordPermutation: a permutation of a cached
// keyword set hits the same entry, and what it gets back is byte-identical
// (XML, snippets, scores, ranks) to what the uncached path would return for
// the permuted order.
func TestCacheHitEquivalentUnderKeywordPermutation(t *testing.T) {
	db, view := testkit.CorpusDB(t, 7)
	fwd := []string{"system", "data"}
	rev := []string{"data", "system"}
	opts := &vxml.Options{TopK: 5, Cache: true}

	if _, _, err := db.Search(view, fwd, opts); err != nil {
		t.Fatal(err)
	}
	hit, st, err := db.Search(view, rev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSource != "cache_hit" {
		t.Fatal("permuted keyword set missed the cache")
	}
	cold, _, err := db.Search(view, rev, &vxml.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := testkit.RenderResults(hit), testkit.RenderResults(cold); a != b {
		t.Errorf("permuted cache hit differs from the uncached permuted search:\n%s\n-- vs --\n%s", a, b)
	}
	if !testkit.SameTF(hit, cold) {
		t.Error("TF maps differ between permuted cache hit and uncached search")
	}
}

// TestConcurrentCachedSearchAndAdd hammers cached and uncached searches
// against interleaved Adds of documents the view does not reference. Those
// Adds invalidate the cache but cannot change the view's results, so every
// response — hit, miss, or mid-ingest — must stay byte-identical to the
// pre-run truth; under -race this also exercises the lock-free
// Gen/compute/PutAt cache path against concurrent Invalidate.
func TestConcurrentCachedSearchAndAdd(t *testing.T) {
	db, view := testkit.CorpusDB(t, 17)
	kws := []string{"data", "system"}
	opts := &vxml.Options{TopK: 5}
	truthResults, _, err := db.Search(view, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := testkit.RenderResults(truthResults)

	const searchers, iters, adds = 4, 25, 20
	var wg sync.WaitGroup
	errs := make(chan error, searchers*iters+adds)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o := *opts
				o.Cache = i%2 == 0
				got, _, err := db.Search(view, kws, &o)
				if err != nil {
					errs <- fmt.Errorf("searcher %d iter %d: %w", g, i, err)
					return
				}
				if testkit.RenderResults(got) != truth {
					errs <- fmt.Errorf("searcher %d iter %d (cache=%v): results diverged from truth", g, i, o.Cache)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			name := fmt.Sprintf("unrelated-%d.xml", i)
			if err := db.Add(name, "<extra><t>data system filler</t></extra>"); err != nil {
				errs <- fmt.Errorf("add %s: %w", name, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every Add invalidated; once the dust settles the cache re-warms and
	// still serves the unchanged truth.
	if cs := db.CacheStats(); cs.Invalidations < adds {
		t.Errorf("Invalidations = %d, want >= %d", cs.Invalidations, adds)
	}
	if _, _, err := db.Search(view, kws, &vxml.Options{TopK: 5, Cache: true}); err != nil {
		t.Fatal(err)
	}
	warm, st, err := db.Search(view, kws, &vxml.Options{TopK: 5, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSource != "cache_hit" {
		t.Error("post-run repeated search missed the cache")
	}
	if testkit.RenderResults(warm) != truth {
		t.Error("post-run cached results diverged from truth")
	}
}

// TestCacheIsolation ensures a caller mutating returned results cannot
// poison the cache for later callers.
func TestCacheIsolation(t *testing.T) {
	db, view := testkit.CorpusDB(t, 13)
	kws := []string{"data"}
	opts := &vxml.Options{TopK: 3, Cache: true}
	first, _, err := db.Search(view, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Skip("no results for corpus seed; nothing to mutate")
	}
	want := testkit.RenderResults(first)
	wantTF := first[0].TF["data"]
	first[0].XML = "mutated"
	first[0].TF["data"] = -999

	again, st, err := db.Search(view, kws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSource != "cache_hit" {
		t.Fatal("expected a cache hit")
	}
	if testkit.RenderResults(again) != want {
		t.Error("caller mutation leaked into the cache")
	}
	if again[0].TF["data"] != wantTF {
		t.Error("caller TF-map mutation leaked into the cache")
	}
}

// TestQueryCacheEquivalence: a cached Query is an ordinary planned search
// of the view its text defines; a warm hit must be byte-identical to the
// cold and uncached paths, survive caller mutation, and be invalidated by
// an ingest.
func TestQueryCacheEquivalence(t *testing.T) {
	db, _ := testkit.CorpusDB(t, 7)
	p := benchkit.Default()
	p.UnitBytes = 16 << 10
	p.SizeUnits = 2
	p.Seed = 7
	full := "let $view := " + p.ViewText() + "\nfor $r in $view\nwhere $r ftcontains('data' & 'system')\nreturn $r"

	plain, plainStats, err := db.Query(full, &vxml.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plainStats.PlanSource == "cache_hit" {
		t.Fatal("uncached Query reported a cache hit")
	}
	opts := &vxml.Options{TopK: 5, Cache: true}
	cold, coldStats, err := db.Query(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.PlanSource == "cache_hit" {
		t.Fatal("first cached Query cannot hit")
	}
	warm, warmStats, err := db.Query(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.PlanSource != "cache_hit" {
		t.Fatal("repeated identical Query missed the cache")
	}
	if a, b := testkit.RenderResults(plain), testkit.RenderResults(warm); a != b {
		t.Fatal("uncached vs cache-hit Query results differ")
	}
	if testkit.RenderResults(cold) != testkit.RenderResults(warm) || !testkit.SameTF(plain, warm) || !testkit.SameTF(cold, warm) {
		t.Fatal("cold vs warm Query results differ")
	}

	// A hit's values are copies: caller mutation must not leak into the cache.
	if len(warm) > 0 {
		warm[0].XML = "mutated"
		for k := range warm[0].TF {
			warm[0].TF[k] = -1
		}
		again, st, err := db.Query(full, opts)
		if err != nil || st.PlanSource != "cache_hit" {
			t.Fatalf("expected a cache hit after mutation probe: %v", err)
		}
		if testkit.RenderResults(again) != testkit.RenderResults(plain) || !testkit.SameTF(again, plain) {
			t.Error("caller mutation leaked into the Query cache entry")
		}
	}

	// An ingest invalidates the text-keyed entry like any other.
	db.MustAdd("query-extra.xml", "<article><title>data system data</title></article>")
	after, afterStats, err := db.Query(full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if afterStats.PlanSource == "cache_hit" {
		t.Fatal("Query cache served a stale entry after an ingest")
	}
	fresh, _, err := db.Query(full, &vxml.Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if testkit.RenderResults(after) != testkit.RenderResults(fresh) {
		t.Fatal("post-invalidation Query differs from the uncached path")
	}
}

// TestQueryPagesShareUnpagedEntry: a cached Query caches through the same
// protocol as Search, so a page of it (Offset > 0) is sliced from the
// unpaged (TopK 0) entry of the same Query — a cache hit, not a fresh
// evaluation — and the pages concatenate to the unpaged answer.
func TestQueryPagesShareUnpagedEntry(t *testing.T) {
	db, _ := testkit.CorpusDB(t, 7)
	full := `let $view := for $a in fn:doc(inex.xml)/books//article return <art>{$a/fm/tl}, {$a/bdy}</art>
for $r in $view
where $r ftcontains('data' | 'system')
return $r`

	unpaged, st, err := db.Query(full, &vxml.Options{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanSource != "direct" {
		t.Fatalf("first cached Query served from %q, want direct", st.PlanSource)
	}
	const size = 5
	if len(unpaged) <= size {
		t.Fatalf("%d results, want more than one page of %d", len(unpaged), size)
	}
	var pages []vxml.Result
	for off := 0; off < len(unpaged); off += size {
		page, st, err := db.Query(full, &vxml.Options{TopK: size, Offset: off, Cache: true})
		if err != nil {
			t.Fatal(err)
		}
		// The first page is a TopK window over the unpaged entry; every
		// later one is sliced from that entry itself.
		want := "cache_hit"
		if off == 0 {
			want = "rewritten"
		}
		if st.PlanSource != want {
			t.Fatalf("page at offset %d served from %q, want %s", off, st.PlanSource, want)
		}
		pages = append(pages, page...)
	}
	if testkit.RenderResults(pages) != testkit.RenderResults(unpaged) || !testkit.SameTF(pages, unpaged) {
		t.Fatal("concatenated Query pages differ from the unpaged Query")
	}
}
