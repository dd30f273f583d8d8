package vxml_test

// Property-style equivalence tests for the catalog query planner: every
// planner tier — exact cache hit, TopK-window rewrite, skeleton rewrite
// with different keywords, adaptively materialized view — must return
// byte-identical results (rank, score, TF map, materialized XML, snippet)
// to direct evaluation of the same search, across randomized corpora,
// view shapes, keyword sets, both parallelism settings and interleaved
// Replace/Delete mutations (which must invalidate every artifact). Run
// with -race: the concurrent trial races planned searches against
// mutations and promotions.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/testkit"
)

// plannedVsDirect runs the same search twice — once with the planner
// (Cache: true) and once directly — asserts byte identity, and returns
// the planned search's plan source.
func plannedVsDirect(t *testing.T, label string, db *vxml.Database, view *vxml.View, kws []string, opts vxml.Options) string {
	t.Helper()
	direct := opts
	direct.Cache = false
	want, _, err := db.Search(view, kws, &direct)
	if err != nil {
		t.Fatalf("%s: direct: %v", label, err)
	}
	planned := opts
	planned.Cache = true
	got, stats, err := db.Search(view, kws, &planned)
	if err != nil {
		t.Fatalf("%s: planned: %v", label, err)
	}
	testkit.MustEqualResults(t, label, want, got)
	if stats.PlanSource == "" {
		t.Fatalf("%s: planned search reported no plan source", label)
	}
	return stats.PlanSource
}

// TestPlannerEquivalenceRandomized drives 48 randomized corpora through a
// search sequence designed to hit every planner tier in turn — first
// search direct (records the skeleton), different-keyword searches off the
// skeleton, a TopK window off the cached full entry, an exact repeat, then
// enough heat to cross the promotion threshold and serve from the
// materialized view — asserting byte identity with direct evaluation at
// every step, then interleaves Replace and Delete and re-asserts (stale
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

			// The view has been served several times over the threshold by
			// now; the promoted materialized view must answer new keyword
			// sets byte-identically.
			note(plannedVsDirect(t, "hot", db, view, []string{"quartz", "survey"}, base))
			note(plannedVsDirect(t, "hot-window", db, view, []string{"quartz"}, topk))

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
		for _, want := range []string{"direct", "cache_hit", "rewritten", "materialized"} {
			if observed[want] == 0 {
				t.Errorf("plan source %q never observed across trials (got %v)", want, observed)
			}
		}
	})
}

// TestPlannerPromotionLifecycle pins the adaptive-materialization policy
// end to end on one database: skeleton after the first planned search,
// materialized after the threshold (catalog.DefaultPromoteHits), demotion
// on mutation, and a doubled re-promotion bar afterwards (churn) — all
// visible through CacheStats. Distinct keyword sets make each search reach
// the engine (an exact repeat would serve from the result cache without
// counting heat).
func TestPlannerPromotionLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := testkit.BuildEqCorpus(t, rng, 4)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	opts := vxml.Options{}
	const threshold = catalog.DefaultPromoteHits
	// 2*threshold+1 distinct keyword sets: the nonempty subsets of words,
	// in bitmask order.
	words := []string{"copper", "quartz", "survey", "basalt", "granite", "mica"}
	var kwSets [][]string
	for mask := 1; mask < 1<<len(words) && len(kwSets) <= 2*threshold; mask++ {
		var kws []string
		for b, w := range words {
			if mask>>b&1 == 1 {
				kws = append(kws, w)
			}
		}
		kwSets = append(kwSets, kws)
	}
	if len(kwSets) <= 2*threshold {
		t.Fatalf("%d keyword sets for a promotion threshold of %d, want %d", len(kwSets), threshold, 2*threshold+1)
	}
	// heat runs the first n keyword sets as planned searches and returns
	// the tier each was served from.
	heat := func(label string, n int) []string {
		var sources []string
		for i, kws := range kwSets[:n] {
			sources = append(sources, plannedVsDirect(t, fmt.Sprintf("%s-%d", label, i), db, view, kws, opts))
		}
		return sources
	}
	// The first search evaluates directly and leaves a skeleton; the rest
	// rewrite it, and the one that reaches the threshold promotes inline.
	rewrites := slices.Repeat([]string{"rewritten"}, threshold-1)
	if got, want := heat("cold", threshold), append([]string{"direct"}, rewrites...); !slices.Equal(got, want) {
		t.Fatalf("cold sequence served from %v, want %v", got, want)
	}
	cs := db.CacheStats()
	if cs.Skeletons != 1 || cs.Materialized != 1 || cs.Promotions != 1 {
		t.Fatalf("after threshold: skeletons=%d materialized=%d promotions=%d, want 1/1/1", cs.Skeletons, cs.Materialized, cs.Promotions)
	}
	if src := plannedVsDirect(t, "promoted", db, view, kwSets[threshold], opts); src != "materialized" {
		t.Fatalf("post-promotion search served from %q, want materialized", src)
	}

	// A mutation demotes: the artifact is dropped, the demotion counted,
	// and the doubled threshold (churn) delays re-promotion.
	if err := db.Replace("part-00.xml", testkit.RandomPartDoc(rng, 9)); err != nil {
		t.Fatal(err)
	}
	cs = db.CacheStats()
	if cs.Materialized != 0 || cs.Demotions != 1 {
		t.Fatalf("after mutation: materialized=%d demotions=%d, want 0/1", cs.Materialized, cs.Demotions)
	}
	rewrites = slices.Repeat([]string{"rewritten"}, 2*threshold-1)
	if got, want := heat("churned", 2*threshold), append([]string{"direct"}, rewrites...); !slices.Equal(got, want) {
		t.Fatalf("churned sequence served from %v, want %v", got, want)
	}
	if cs = db.CacheStats(); cs.Promotions != 2 {
		t.Fatalf("after churned re-heat: promotions=%d, want 2 (threshold doubled)", cs.Promotions)
	}
	if src := plannedVsDirect(t, "re-promoted", db, view, kwSets[2*threshold], opts); src != "materialized" {
		t.Fatalf("re-promoted search served from %q, want materialized", src)
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
