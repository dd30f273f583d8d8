package cluster_test

// Cluster-level planner equivalence: the coordinator shares the catalog
// vocabulary with the single-process engine — exact cache hits and
// TopK-window rewrites over the shared unpaged entry — and every planned
// answer must stay byte-identical to a single-process oracle over the same
// corpus, before and after mutations invalidate the catalog.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/testkit"
)

func TestClusterPlannerEquivalence(t *testing.T) {
	for _, slots := range []int{1, 3} {
		t.Run(fmt.Sprintf("slots%d", slots), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7100 + slots)))
			tc := startCluster(t, slots, nil)

			var rec recorder
			testkit.FillEqCorpus(t, rng, 4+rng.Intn(4), &rec)
			db := vxml.Open()
			for _, d := range rec.docs {
				db.MustAdd(d[0], d[1])
				if err := tc.coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
					t.Fatalf("cluster add %q: %v", d[0], err)
				}
			}
			view, err := db.DefineView(testkit.EqViews[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.coord.DefineView(context.Background(), "v", testkit.EqViews[0]); err != nil {
				t.Fatal(err)
			}

			kws := testkit.KeywordsFor(rng)
			// Only the coordinator plans: no node request turns on the
			// engine planner, so however many cached searches ran, no node
			// engine holds an artifact.
			noNodeArtifacts := func(label string) {
				t.Helper()
				for i, n := range tc.nodes {
					if ns := n.CatalogStats(); ns.Skeletons != 0 {
						t.Fatalf("%s: node %d holds %d skeletons, want none", label, i, ns.Skeletons)
					}
				}
			}
			search := func(label string, opts *vxml.Options) *vxml.Stats {
				t.Helper()
				want, _, err := db.Search(view, kws, &vxml.Options{TopK: opts.TopK, Disjunctive: opts.Disjunctive})
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				got, stats, err := tc.coord.Search(context.Background(), "v", kws, opts)
				if err != nil {
					t.Fatalf("%s: coordinator: %v", label, err)
				}
				testkit.MustEqualResults(t, label, want, got)
				return stats
			}

			// Cold full search populates the shared unpaged entry; the plan
			// source is direct.
			cold := search("cold-full", &vxml.Options{Cache: true})
			if cold.PlanSource != catalog.PlanDirect {
				t.Fatalf("cold search served from %q, want direct", cold.PlanSource)
			}
			// An exact repeat is a cache hit, with the serving view's ID.
			st := search("exact-repeat", &vxml.Options{Cache: true})
			if st.PlanSource != catalog.PlanCacheHit || st.PlanView == "" {
				t.Fatalf("repeat served from %q (view=%q), want cache_hit", st.PlanSource, st.PlanView)
			}
			// Cache entries are immutable no matter what callers do with
			// the stats they were handed — the computing caller's and a
			// hit's alike.
			cold.Nodes[0].State, st.Nodes[0].State = "scribbled", "scribbled"
			if again := search("repeat-after-scribble", &vxml.Options{Cache: true}); again.Nodes[0].State != "ok" {
				t.Fatalf("a caller's edit of Stats.Nodes reached the cache entry: %+v", again.Nodes[0])
			}
			// A TopK window over the cached full ranking rewrites: no node
			// RPC, byte-identical to a direct top-K search.
			st = search("window", &vxml.Options{Cache: true, TopK: 2})
			if st.PlanSource != catalog.PlanRewritten {
				t.Fatalf("window served from %q, want rewritten", st.PlanSource)
			}
			if cs := tc.coord.CacheStats(); cs.RewriteHits != 1 {
				t.Fatalf("RewriteHits = %d after window serve, want 1", cs.RewriteHits)
			}

			noNodeArtifacts("before-mutations")

			// PlanProbe agrees with what a search would do.
			source, viewID, err := tc.coord.PlanProbe("v", kws)
			if err != nil {
				t.Fatal(err)
			}
			if source != catalog.PlanCacheHit || viewID == "" {
				t.Fatalf("PlanProbe = (%q, %q), want cache_hit with a view ID", source, viewID)
			}

			// A mutation through the coordinator invalidates the catalog:
			// the next planned search evaluates directly and matches a fresh
			// oracle over the mutated corpus; the one after that is a window
			// rewrite of the repopulated entry.
			replacement := testkit.RandomPartDoc(rng, 88)
			if err := tc.coord.ReplaceDocument(context.Background(), "part-00.xml", replacement); err != nil {
				t.Fatal(err)
			}
			if err := db.Replace("part-00.xml", replacement); err != nil {
				t.Fatal(err)
			}
			if st = search("after-replace", &vxml.Options{Cache: true}); st.PlanSource != catalog.PlanDirect {
				t.Fatalf("post-mutation search served from %q, want direct", st.PlanSource)
			}
			if st = search("after-replace-window", &vxml.Options{Cache: true, TopK: 3}); st.PlanSource != catalog.PlanRewritten {
				t.Fatalf("post-mutation window served from %q, want rewritten", st.PlanSource)
			}
			deleted := "part-01.xml"
			if err := tc.coord.DeleteDocument(context.Background(), deleted); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(deleted); err != nil {
				t.Fatal(err)
			}
			if st = search("after-delete", &vxml.Options{Cache: true}); st.PlanSource != catalog.PlanDirect {
				t.Fatalf("post-delete search served from %q, want direct", st.PlanSource)
			}
			noNodeArtifacts("after-delete")
		})
	}
}
