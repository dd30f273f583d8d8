package vxml_test

// Property-style equivalence tests for the catalog query planner: every
// planner tier — exact cache hit, TopK-window rewrite, skeleton rewrite
// with different keywords — must return byte-identical results (rank,
// score, TF map, materialized XML, snippet) to direct evaluation of the
// same search, across randomized corpora, view shapes, keyword sets, both
// parallelism settings and interleaved Replace/Delete mutations (which
// must invalidate every artifact). Run with -race: the concurrent trial
// races planned searches against mutations.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vxml"
	"vxml/internal/testkit"
)

// plannedVsDirect runs the same search twice — once with the planner
// (Cache: true) and once directly — asserts byte identity, and returns
// the planned search's plan source.
func plannedVsDirect(t *testing.T, label string, db *vxml.Database, view *vxml.View, kws []string, opts vxml.Options) string {
	t.Helper()
	planned, _ := plannedAndDirect(t, label, db, view, kws, opts)
	return planned.PlanSource
}

// plannedAndDirect is plannedVsDirect returning both searches' stats,
// planned first.
func plannedAndDirect(t *testing.T, label string, db *vxml.Database, view *vxml.View, kws []string, opts vxml.Options) (planned, direct *vxml.Stats) {
	t.Helper()
	directOpts := opts
	directOpts.Cache = false
	want, direct, err := db.Search(view, kws, &directOpts)
	if err != nil {
		t.Fatalf("%s: direct: %v", label, err)
	}
	plannedOpts := opts
	plannedOpts.Cache = true
	got, planned, err := db.Search(view, kws, &plannedOpts)
	if err != nil {
		t.Fatalf("%s: planned: %v", label, err)
	}
	testkit.MustEqualResults(t, label, want, got)
	if planned.PlanSource == "" {
		t.Fatalf("%s: planned search reported no plan source", label)
	}
	return planned, direct
}

// TestPlannerEquivalenceRandomized drives 48 randomized corpora through a
// search sequence designed to hit every planner tier in turn — first
// search direct (records the skeleton), different-keyword searches off the
// skeleton, a TopK window off the cached full entry, an exact repeat, then
// more keyword sets off the skeleton — asserting byte identity with direct
// evaluation at every step, then interleaves Replace and Delete and re-asserts (stale
// artifacts must never serve). Trials alternate sequential and parallel
// pipelines and run concurrently with each other.
func TestPlannerEquivalenceRandomized(t *testing.T) {
	var mu sync.Mutex
	observed := map[string]int{}
	note := func(source string) {
		mu.Lock()
		observed[source]++
		mu.Unlock()
	}

	for trial := 0; trial < 48; trial++ {
		t.Run(fmt.Sprintf("trial=%02d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0x9107 + int64(trial)*7919))
			db := testkit.BuildEqCorpus(t, rng, 3+rng.Intn(4))
			view, err := db.DefineView(testkit.EqViews[trial%len(testkit.EqViews)])
			if err != nil {
				t.Fatal(err)
			}
			par := trial % 2 // 1 = sequential, 0 = full worker pool
			base := vxml.Options{Parallelism: par, Disjunctive: trial%3 == 0}

			kwsA := testkit.KeywordsFor(rng)
			note(plannedVsDirect(t, "cold", db, view, kwsA, base))

			// Different keyword sets over the same view: the skeleton is
			// keyword-independent, so these rewrite rather than re-evaluate.
			note(plannedVsDirect(t, "other-keywords", db, view, []string{"basalt", "copper"}, base))
			disj := base
			disj.Disjunctive = !base.Disjunctive
			note(plannedVsDirect(t, "other-semantics", db, view, kwsA, disj))

			// A TopK window of the already-cached full ranking, then the
			// exact same search again (cache hit).
			topk := base
			topk.TopK = 1 + rng.Intn(3)
			note(plannedVsDirect(t, "window", db, view, kwsA, topk))
			note(plannedVsDirect(t, "exact-repeat", db, view, kwsA, base))

			// Further new keyword sets, unpaged and windowed, still rewrite
			// the same skeleton.
			note(plannedVsDirect(t, "more-keywords", db, view, []string{"quartz", "survey"}, base))
			note(plannedVsDirect(t, "more-keywords-window", db, view, []string{"quartz"}, topk))

			// Mutations invalidate every artifact: each planned search after
			// one must match a fresh direct evaluation, never a stale tier.
			if err := db.Replace("part-00.xml", testkit.RandomPartDoc(rng, 77)); err != nil {
				t.Fatal(err)
			}
			note(plannedVsDirect(t, "after-replace", db, view, kwsA, base))
			note(plannedVsDirect(t, "after-replace-rewrite", db, view, []string{"copper"}, base))
			if err := db.Delete("part-01.xml"); err != nil {
				t.Fatal(err)
			}
			note(plannedVsDirect(t, "after-delete", db, view, kwsA, base))
			note(plannedVsDirect(t, "after-delete-window", db, view, kwsA, topk))
		})
	}

	t.Cleanup(func() {
		// Every tier must actually have served somewhere across the 48
		// trials, or the suite is vacuously passing against a planner that
		// never engages.
		t.Logf("plan sources observed: %v", observed)
		for _, want := range []string{"direct", "cache_hit", "rewritten"} {
			if observed[want] == 0 {
				t.Errorf("plan source %q never observed across trials (got %v)", want, observed)
			}
		}
	})
}

// TestPlannerSkeletonLifecycle pins the skeleton tier end to end on one
// database: the first planned search evaluates directly and leaves a
// skeleton; every later search with new keywords rewrites it, however hot
// the view gets, and fetches from base data exactly what the matching
// direct search fetches (the winners, and nothing prebuilt); a mutation
// drops the skeleton and the next search evaluates directly again.
// Distinct keyword sets make each search reach the engine (an exact repeat
// would serve from the result cache).
func TestPlannerSkeletonLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := testkit.BuildEqCorpus(t, rng, 4)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	opts := vxml.Options{}
	// rewrites is twice a hit-count promotion threshold of 3, plus one: a
	// prebuilt-tree tier that promoted on heat would show within it. The
	// keyword sets are the nonempty subsets of words, in bitmask order: one
	// cold search, the rewrites, one after the mutation.
	const rewrites = 2*3 + 1
	words := []string{"copper", "quartz", "survey", "basalt", "granite", "mica"}
	var kwSets [][]string
	for mask := 1; len(kwSets) < rewrites+2; mask++ {
		var kws []string
		for b, w := range words {
			if mask>>b&1 == 1 {
				kws = append(kws, w)
			}
		}
		kwSets = append(kwSets, kws)
	}

	if src := plannedVsDirect(t, "cold", db, view, kwSets[0], opts); src != "direct" {
		t.Fatalf("first search served from %q, want direct", src)
	}
	fetched := 0
	for i, kws := range kwSets[1 : rewrites+1] {
		label := fmt.Sprintf("warm-%d", i)
		planned, direct := plannedAndDirect(t, label, db, view, kws, opts)
		if planned.PlanSource != "rewritten" {
			t.Fatalf("%s served from %q, want rewritten", label, planned.PlanSource)
		}
		if planned.BaseData != direct.BaseData {
			t.Fatalf("%s fetched %d base subtrees, the direct search %d", label, planned.BaseData, direct.BaseData)
		}
		fetched += planned.BaseData
	}
	if fetched == 0 {
		t.Fatal("no rewritten search fetched base data: the keyword sets match nothing")
	}
	if cs := db.CacheStats(); cs.Skeletons != 1 || cs.RewriteHits != rewrites {
		t.Fatalf("after warm-up: skeletons=%d rewrite_hits=%d, want 1/%d", cs.Skeletons, cs.RewriteHits, rewrites)
	}

	if err := db.Replace("part-00.xml", testkit.RandomPartDoc(rng, 9)); err != nil {
		t.Fatal(err)
	}
	if cs := db.CacheStats(); cs.Skeletons != 0 {
		t.Fatalf("after mutation: skeletons=%d, want 0", cs.Skeletons)
	}
	if src := plannedVsDirect(t, "after-replace", db, view, kwSets[rewrites+1], opts); src != "direct" {
		t.Fatalf("post-mutation search served from %q, want direct", src)
	}
}

// TestPlannerConcurrentMutationRace hammers planned searches from many
// goroutines while a mutator replaces and deletes documents, exercising
// the generation-stamp discipline under real contention (run with -race).
// Searches may be served by any tier but must never fail; after the dust
// settles a final planned search must match direct evaluation exactly, and
// no goroutine may leak.
func TestPlannerConcurrentMutationRace(t *testing.T) {
	baselineGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(4242))
	db := testkit.BuildEqCorpus(t, rng, 5)
	views := make([]*vxml.View, 2)
	for i, text := range []string{testkit.EqViews[0], testkit.EqViews[1]} {
		v, err := db.DefineView(text)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	const searchers = 6
	var wg sync.WaitGroup
	errs := make(chan error, searchers*20+20)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(g) * 997))
			for i := 0; i < 20; i++ {
				opts := vxml.Options{
					Cache:       true,
					TopK:        []int{0, 3}[grng.Intn(2)],
					Disjunctive: grng.Intn(2) == 1,
					Parallelism: grng.Intn(2),
				}
				if _, _, err := db.Search(views[g%2], testkit.KeywordsFor(grng), &opts); err != nil {
					errs <- fmt.Errorf("searcher %d iter %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(31337))
		for i := 0; i < 15; i++ {
			name := fmt.Sprintf("part-0%d.xml", mrng.Intn(5))
			if mrng.Intn(3) == 0 {
				if err := db.Delete(name); err != nil {
					continue // already deleted this round: fine
				}
				if err := db.Add(name, testkit.RandomPartDoc(mrng, 60+i)); err != nil {
					errs <- fmt.Errorf("mutator re-add %s: %w", name, err)
					return
				}
				continue
			}
			if err := db.Replace(name, testkit.RandomPartDoc(mrng, 30+i)); err != nil {
				errs <- fmt.Errorf("mutator replace %s: %w", name, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i, view := range views {
		plannedVsDirect(t, fmt.Sprintf("quiesced view %d", i), db, view, []string{"copper", "quartz"}, vxml.Options{})
		plannedVsDirect(t, fmt.Sprintf("quiesced view %d topk", i), db, view, []string{"survey"}, vxml.Options{TopK: 2})
	}
	testkit.WaitGoroutines(t, "after planner mutation race", baselineGoroutines)
}
