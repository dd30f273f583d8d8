// Distributed byte-identity: the oracle suite pinning the scatter-gather
// coordinator to the single-process Database. For every randomized corpus,
// view shape and option cell, a coordinator fanning over N nodes must
// return byte-identical results — rank, score, TF map, materialized XML,
// snippet — to one Database holding the same documents in the same
// enumeration order, across ranked/unranked, conjunctive/disjunctive,
// one-shot/streamed and paged delivery, before and after interleaved
// mutations routed through the coordinator. Run with -race.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"vxml"
	"vxml/internal/cluster"
	"vxml/internal/testkit"
)

// testCluster is N single-member slots behind httptest servers plus a
// coordinator over them.
type testCluster struct {
	coord   *cluster.Coordinator
	nodes   []*cluster.Node
	servers []*httptest.Server
}

// startCluster boots one node per slot and a coordinator. tweak, when
// non-nil, may adjust the config (timeouts, extra members) before the
// coordinator is built.
func startCluster(t testing.TB, slots int, tweak func(*cluster.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	cfg := cluster.Config{}
	for i := 0; i < slots; i++ {
		n := cluster.NewNode()
		srv := httptest.NewServer(n.Handler())
		tc.nodes = append(tc.nodes, n)
		tc.servers = append(tc.servers, srv)
		cfg.Slots = append(cfg.Slots, []string{srv.URL})
	}
	if tweak != nil {
		tweak(&cfg)
	}
	coord, err := cluster.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	t.Cleanup(func() {
		for _, s := range tc.servers {
			s.Close()
		}
	})
	return tc
}

// coordTarget adapts a Coordinator to testkit's Target/Mutator corpus
// interfaces.
type coordTarget struct{ c *cluster.Coordinator }

func (a coordTarget) Add(name, xml string) error {
	return a.c.AddDocument(context.Background(), name, xml)
}
func (a coordTarget) Replace(name, xml string) error {
	return a.c.ReplaceDocument(context.Background(), name, xml)
}
func (a coordTarget) Delete(name string) error {
	return a.c.DeleteDocument(context.Background(), name)
}

// tee fans every lifecycle operation to two mutators, so one random op
// sequence lands identically on the oracle Database and the coordinator.
type tee struct{ a, b testkit.Mutator }

func (t tee) Add(name, xml string) error {
	if err := t.a.Add(name, xml); err != nil {
		return err
	}
	return t.b.Add(name, xml)
}
func (t tee) Replace(name, xml string) error {
	if err := t.a.Replace(name, xml); err != nil {
		return err
	}
	return t.b.Replace(name, xml)
}
func (t tee) Delete(name string) error {
	if err := t.a.Delete(name); err != nil {
		return err
	}
	return t.b.Delete(name)
}

// recorder captures a generated corpus so it can be replayed into several
// targets.
type recorder struct{ docs [][2]string }

func (r *recorder) Add(name, xml string) error {
	r.docs = append(r.docs, [2]string{name, xml})
	return nil
}

// mustSearchBoth runs the same search on the oracle and the coordinator
// and asserts byte identity plus agreement of the result-affecting stats.
func mustSearchBoth(t *testing.T, label string, db *vxml.Database, view *vxml.View,
	coord *cluster.Coordinator, viewName string, kws []string, opts *vxml.Options) []vxml.Result {
	t.Helper()
	want, wantStats, err := db.Search(view, kws, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	got, gotStats, err := coord.Search(context.Background(), viewName, kws, opts)
	if err != nil {
		t.Fatalf("%s: coordinator: %v", label, err)
	}
	testkit.MustEqualResults(t, label, want, got)
	if wantStats.ViewSize != gotStats.ViewSize || wantStats.Matched != gotStats.Matched {
		t.Fatalf("%s: counters diverge: oracle view=%d matched=%d, cluster view=%d matched=%d",
			label, wantStats.ViewSize, wantStats.Matched, gotStats.ViewSize, gotStats.Matched)
	}
	return want
}

// TestDistributedByteIdentity is the acceptance property: >= 48 randomized
// corpora (12 seeds x 4 topologies), each compared across every view
// shape, ranked/unranked x conjunctive/disjunctive, one-shot, streamed and
// paged delivery — then again after a random mutation sequence applied
// through the coordinator.
func TestDistributedByteIdentity(t *testing.T) {
	baselineGoroutines := runtime.NumGoroutine()
	corpora := 0
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, slots := range []int{1, 2, 3, 5} {
			corpora++
			t.Run(fmt.Sprintf("seed%02d/slots%d", seed, slots), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(slots)))
				tc := startCluster(t, slots, nil)

				// One generated corpus, replayed into both systems.
				var rec recorder
				testkit.FillEqCorpus(t, rng, 3+rng.Intn(10), &rec)
				db := vxml.Open()
				for _, d := range rec.docs {
					db.MustAdd(d[0], d[1])
					if err := tc.coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
						t.Fatalf("cluster add %q: %v", d[0], err)
					}
				}

				views := make([]*vxml.View, len(testkit.EqViews))
				for i, text := range testkit.EqViews {
					v, err := db.DefineView(text)
					if err != nil {
						t.Fatalf("oracle view %d: %v", i, err)
					}
					views[i] = v
					if _, err := tc.coord.DefineView(context.Background(), fmt.Sprintf("v%d", i), text, false); err != nil {
						t.Fatalf("cluster view %d: %v", i, err)
					}
				}

				compareAll := func(phase string) {
					kws := testkit.KeywordsFor(rng)
					disj := rng.Intn(2) == 1
					for i := range views {
						name := fmt.Sprintf("v%d", i)
						prefix := fmt.Sprintf("%s/view%d/kws=%v/disj=%v", phase, i, kws, disj)

						full := mustSearchBoth(t, prefix+"/full", db, views[i], tc.coord, name, kws,
							&vxml.Options{Disjunctive: disj})
						mustSearchBoth(t, prefix+"/top3", db, views[i], tc.coord, name, kws,
							&vxml.Options{TopK: 3, Disjunctive: disj})
						mustSearchBoth(t, prefix+"/conj-flip", db, views[i], tc.coord, name, kws,
							&vxml.Options{TopK: 4, Disjunctive: !disj})

						// Streamed delivery replays the identical ranking.
						streamed := testkit.CollectResults(t, prefix+"/stream",
							tc.coord.Results(context.Background(), name, kws, &vxml.Options{Disjunctive: disj}))
						testkit.MustEqualResults(t, prefix+"/stream-vs-oracle", full, streamed)

						// A paged window slices the same total order.
						if len(full) > 1 {
							off := 1 + rng.Intn(len(full))
							mustSearchBoth(t, fmt.Sprintf("%s/page-off%d", prefix, off),
								db, views[i], tc.coord, name, kws,
								&vxml.Options{Offset: off, TopK: 2, Disjunctive: disj})
						}
					}
				}

				compareAll("initial")

				// The same random lifecycle lands on both systems; identity
				// must survive it (stale postings, missed invalidations and
				// generation races all surface here). The seed map tells the
				// mutator which part documents the corpus already holds.
				existing := map[string]string{}
				for _, d := range rec.docs {
					if d[0] != "authors.xml" {
						existing[d[0]] = d[1]
					}
				}
				testkit.MutateRandomly(t, tee{db, coordTarget{tc.coord}}, rng, existing)
				compareAll("mutated")

				// Cached repeat: the coordinator's cache hit must replay the
				// identical bytes, and a fresh oracle search must agree.
				kws := testkit.KeywordsFor(rng)
				cold, _, err := tc.coord.Search(context.Background(), "v0", kws, &vxml.Options{TopK: 5, Cache: true})
				if err != nil {
					t.Fatal(err)
				}
				warm, warmStats, err := tc.coord.Search(context.Background(), "v0", kws, &vxml.Options{TopK: 5, Cache: true})
				if err != nil {
					t.Fatal(err)
				}
				if warmStats.PlanSource != "cache_hit" {
					t.Fatal("repeated identical cluster search missed the coordinator cache")
				}
				testkit.MustEqualResults(t, "cluster cache hit", cold, warm)
				oracle, _, err := db.Search(views[0], kws, &vxml.Options{TopK: 5})
				if err != nil {
					t.Fatal(err)
				}
				testkit.MustEqualResults(t, "cluster cache vs oracle", oracle, warm)
			})
		}
	}
	if corpora < 48 && !testing.Short() {
		t.Fatalf("only %d randomized corpora, want >= 48", corpora)
	}
	testkit.WaitGoroutines(t, "after distributed equivalence trials", baselineGoroutines)
}

// TestClusterMutationThroughCoordinatorMatchesFreshBuild replays the
// mutation-equivalence oracle at the cluster level: a cluster corpus that
// reached its state through a random Add/Replace/Delete interleaving must
// search byte-identically to a fresh single-process corpus holding the
// final documents in the cluster's enumeration order.
func TestClusterMutationThroughCoordinatorMatchesFreshBuild(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9300 + trial)))
			tc := startCluster(t, 2+trial%3, nil)
			target := coordTarget{tc.coord}
			if err := target.Add("authors.xml", testkit.AuthorsXML(rng)); err != nil {
				t.Fatal(err)
			}
			final := testkit.MutateRandomly(t, target, rng, nil)

			fresh := vxml.Open()
			for _, name := range tc.coord.DocumentNames() {
				if name == "authors.xml" {
					continue // replayed below in enumeration order
				}
				if _, ok := final[name]; !ok {
					t.Fatalf("cluster enumerates %q but the op log lost it", name)
				}
			}
			for _, name := range tc.coord.DocumentNames() {
				if name == "authors.xml" {
					fresh.MustAdd(name, testkit.AuthorsXML(rand.New(rand.NewSource(int64(9300+trial)))))
					continue
				}
				fresh.MustAdd(name, final[name])
			}

			kws := testkit.KeywordsFor(rng)
			for vi, text := range testkit.MutViews {
				name := fmt.Sprintf("m%d", vi)
				if _, err := tc.coord.DefineView(context.Background(), name, text, false); err != nil {
					t.Fatal(err)
				}
				fv, err := fresh.DefineView(text)
				if err != nil {
					t.Fatal(err)
				}
				for _, topK := range []int{0, 4} {
					label := fmt.Sprintf("trial%d/view%d/k%d", trial, vi, topK)
					want, _, err := fresh.Search(fv, kws, &vxml.Options{TopK: topK})
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := tc.coord.Search(context.Background(), name, kws, &vxml.Options{TopK: topK})
					if err != nil {
						t.Fatal(err)
					}
					testkit.MustEqualResults(t, label, want, got)
				}
			}
		})
	}
}

// TestNodeDownYieldsPartialCluster kills one slot's only member outright:
// the search must deliver the surviving partitions' merged results WITH a
// typed ErrPartialCluster — never a silently smaller result set — and
// Stats.Nodes must name the lost member.
func TestNodeDownYieldsPartialCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tc := startCluster(t, 3, func(cfg *cluster.Config) {
		cfg.Retries = -1 // no transport retries: keep the failure path quick
	})
	var rec recorder
	testkit.FillEqCorpus(t, rng, 12, &rec)
	for _, d := range rec.docs {
		if err := tc.coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tc.coord.DefineView(context.Background(), "v", testkit.EqViews[0], false); err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper"}
	ref, _, err := tc.coord.Search(context.Background(), "v", kws, nil)
	if err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	if len(ref) == 0 {
		t.Fatal("corpus produced no results; the kill has nothing to truncate")
	}

	tc.servers[1].Close() // slot 1 is gone

	got, stats, err := tc.coord.Search(context.Background(), "v", kws, nil)
	if err == nil {
		t.Fatalf("search over a dead slot returned %d results with no error: silent truncation", len(got))
	}
	if !errors.Is(err, vxml.ErrPartialCluster) {
		t.Fatalf("error %q does not wrap ErrPartialCluster", err)
	}
	if stats == nil {
		t.Fatal("partial search must still report stats")
	}
	var failed int
	for _, n := range stats.Nodes {
		if n.State == "failed" {
			failed++
			if n.Slot != 1 {
				t.Errorf("failed member on slot %d, want slot 1", n.Slot)
			}
			if n.Err == "" {
				t.Error("failed member carries no error text")
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed members in stats.Nodes, want 1: %+v", failed, stats.Nodes)
	}
	if len(got) >= len(ref) {
		t.Fatalf("partial search returned %d results, reference %d: the dead slot contributed nothing?", len(got), len(ref))
	}
	// Survivors keep the global order: every delivered result is one of the
	// reference's, in reference order.
	j := 0
	for _, r := range got {
		for j < len(ref) && ref[j].XML != r.XML {
			j++
		}
		if j == len(ref) {
			t.Fatalf("partial result %q is not part of the healthy reference ranking", r.Snippet)
		}
		j++
	}

	// Partial results are never cached: a repeat with the cache armed must
	// recompute (and still fail), not serve the partial entry.
	if _, _, err := tc.coord.Search(context.Background(), "v", kws, &vxml.Options{Cache: true}); !errors.Is(err, vxml.ErrPartialCluster) {
		t.Fatalf("cached repeat over dead slot: %v, want ErrPartialCluster", err)
	}
	if hits := tc.coord.CacheStats().Hits; hits != 0 {
		t.Fatalf("partial search was served from cache (%d hits)", hits)
	}

	// The cached paged route degrades like every other: the survivors'
	// page comes back with the error and the per-member outcomes.
	if len(got) < 2 {
		t.Fatalf("only %d surviving results; the paged check needs 2", len(got))
	}
	page, pageStats, err := tc.coord.Search(context.Background(), "v", kws, &vxml.Options{Cache: true, Offset: 1, TopK: 2})
	if !errors.Is(err, vxml.ErrPartialCluster) {
		t.Fatalf("cached page over dead slot: %v, want ErrPartialCluster", err)
	}
	testkit.MustEqualResults(t, "cached page over dead slot", got[1:min(3, len(got))], page)
	if pageStats == nil || len(pageStats.Nodes) == 0 {
		t.Fatalf("cached page over dead slot lost its stats: %+v", pageStats)
	}
}

// TestMaterializePhaseFailureDeliversExactPrefix fails one slot between
// ranking and materialization (its /materialize route starts erroring
// after rank succeeded). The coordinator must deliver the exact in-order
// prefix of the global ranking up to the first result it cannot
// materialize, plus ErrPartialCluster.
func TestMaterializePhaseFailureDeliversExactPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var breakMaterialize atomic.Bool
	n0, n1 := cluster.NewNode(), cluster.NewNode()
	s0 := httptest.NewServer(n0.Handler())
	defer s0.Close()
	s1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if breakMaterialize.Load() && r.URL.Path == "/cluster/v1/materialize" {
			http.Error(w, `{"error":"injected failure","code":"internal"}`, http.StatusInternalServerError)
			return
		}
		n1.Handler().ServeHTTP(w, r)
	}))
	defer s1.Close()
	coord, err := cluster.NewCoordinator(cluster.Config{
		Slots:   [][]string{{s0.URL}, {s1.URL}},
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	testkit.FillEqCorpus(t, rng, 14, &rec)
	for _, d := range rec.docs {
		if err := coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.DefineView(context.Background(), "v", testkit.EqViews[0], false); err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper"}
	ref, _, err := coord.Search(context.Background(), "v", kws, nil)
	if err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	if len(ref) < 2 {
		t.Fatalf("reference too small (%d results) to observe a prefix cut", len(ref))
	}

	breakMaterialize.Store(true)
	got, _, err := coord.Search(context.Background(), "v", kws, nil)
	if !errors.Is(err, vxml.ErrPartialCluster) {
		// A nil error here would mean slot 1 contributed no winners for this
		// seed — pick a different seed rather than weakening the assertion.
		t.Fatalf("materialize-phase failure: %v, want ErrPartialCluster", err)
	}
	if len(got) >= len(ref) {
		t.Fatalf("got %d results with a broken slot, reference %d", len(got), len(ref))
	}
	// The delivered results are the exact reference prefix: same ranks,
	// scores, XML, snippets, TF maps.
	testkit.MustEqualResults(t, "prefix after materialize failure", ref[:len(got)], got)
}

// TestReplicaFailoverAfterSnapshotBootstrap ships a snapshot from a loaded
// primary to an empty replica, kills the primary, and expects byte-identical
// answers from the replica — and, before the bootstrap, expects the lagging
// empty replica to be rejected (generation 0 < the coordinator's vector)
// rather than silently serving an empty corpus.
func TestReplicaFailoverAfterSnapshotBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	primary := cluster.NewNode()
	primarySrv := httptest.NewServer(primary.Handler())
	defer primarySrv.Close()

	var replica atomic.Pointer[cluster.Node]
	replica.Store(cluster.NewNode())
	replicaSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replica.Load().Handler().ServeHTTP(w, r)
	}))
	defer replicaSrv.Close()

	coord, err := cluster.NewCoordinator(cluster.Config{
		Slots:   [][]string{{primarySrv.URL, replicaSrv.URL}},
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	testkit.FillEqCorpus(t, rng, 10, &rec)
	for _, d := range rec.docs {
		if err := coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.DefineView(context.Background(), "v", testkit.EqViews[1], false); err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper", "quartz"}
	ref, _, err := coord.Search(context.Background(), "v", kws, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap the replica from the primary's consistent snapshot; it
	// adopts the snapshot's generation and can now serve reads.
	boot, err := cluster.NewNodeFromSnapshot(context.Background(), nil, primarySrv.URL)
	if err != nil {
		t.Fatalf("snapshot bootstrap: %v", err)
	}
	if boot.Gen() != primary.Gen() {
		t.Fatalf("replica bootstrapped at generation %d, primary at %d", boot.Gen(), primary.Gen())
	}
	if boot.Documents() != primary.Documents() {
		t.Fatalf("replica holds %d documents, primary %d", boot.Documents(), primary.Documents())
	}
	replica.Store(boot)

	primarySrv.Close() // primary gone; reads must fail over

	got, stats, err := coord.Search(context.Background(), "v", kws, nil)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	testkit.MustEqualResults(t, "replica failover", ref, got)
	servedByReplica := false
	for _, n := range stats.Nodes {
		if n.URL == replicaSrv.URL && n.State == "ok" {
			servedByReplica = true
		}
	}
	if !servedByReplica {
		t.Fatalf("stats do not credit the replica: %+v", stats.Nodes)
	}

	// Mutations, by contrast, must NOT fail over (the replica is read-only
	// by protocol: only the primary may apply writes).
	err = coord.AddDocument(context.Background(), "part-90.xml", "<books><article><bdy>copper</bdy></article></books>")
	if err == nil {
		t.Fatal("mutation succeeded with a dead primary; writes must route to the primary only")
	}
}

// TestLaggingReplicaIsNotServed pins the stale-read protection: an empty
// (never bootstrapped) replica is behind the coordinator's generation
// vector, so with the primary dead the search fails with ErrPartialCluster
// instead of silently answering from generation zero.
func TestLaggingReplicaIsNotServed(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	primary := cluster.NewNode()
	primarySrv := httptest.NewServer(primary.Handler())
	defer primarySrv.Close()
	lagging := cluster.NewNode()
	laggingSrv := httptest.NewServer(lagging.Handler())
	defer laggingSrv.Close()

	coord, err := cluster.NewCoordinator(cluster.Config{
		Slots:   [][]string{{primarySrv.URL, laggingSrv.URL}},
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	testkit.FillEqCorpus(t, rng, 6, &rec)
	for _, d := range rec.docs {
		if err := coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.DefineView(context.Background(), "v", testkit.EqViews[0], false); err != nil {
		t.Fatal(err)
	}
	primarySrv.Close()

	got, _, err := coord.Search(context.Background(), "v", []string{"copper"}, nil)
	if !errors.Is(err, vxml.ErrPartialCluster) {
		t.Fatalf("search with only a lagging replica: err=%v (%d results), want ErrPartialCluster", err, len(got))
	}
}

// TestSelfJoinRouting pins the scatter-safety analysis: a view whose
// collection is referenced twice (a self-join) cannot be partitioned. On a
// one-slot cluster it still runs — byte-identical to the oracle — and on a
// multi-slot cluster it fails with the typed ErrUnroutableView instead of
// returning partition-local join results.
func TestSelfJoinRouting(t *testing.T) {
	selfJoin := `for $a in fn:collection("part-*")/books//article
	 return <pair>{$a/fm/tl},
	   {for $b in fn:collection("part-*")/books//article
	    where $b/fm/au = $a/fm/au
	    return <m>{$b/fm/yr}</m>}</pair>`

	rng := rand.New(rand.NewSource(41))
	var rec recorder
	testkit.FillEqCorpus(t, rng, 5, &rec)

	load := func(t *testing.T, tc *testCluster) {
		t.Helper()
		for _, d := range rec.docs {
			if err := tc.coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tc.coord.DefineView(context.Background(), "sj", selfJoin, false); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("one-slot", func(t *testing.T) {
		tc := startCluster(t, 1, nil)
		load(t, tc)
		db := vxml.Open()
		for _, d := range rec.docs {
			db.MustAdd(d[0], d[1])
		}
		view, err := db.DefineView(selfJoin)
		if err != nil {
			t.Fatal(err)
		}
		mustSearchBoth(t, "self-join single slot", db, view, tc.coord, "sj",
			[]string{"copper"}, &vxml.Options{TopK: 5})
	})

	t.Run("multi-slot", func(t *testing.T) {
		tc := startCluster(t, 3, nil)
		load(t, tc)
		_, _, err := tc.coord.Search(context.Background(), "sj", []string{"copper"}, nil)
		if !errors.Is(err, vxml.ErrUnroutableView) {
			t.Fatalf("self-join over 3 slots: %v, want ErrUnroutableView", err)
		}
	})
}

// TestDocumentNodeBindingScatters: a view whose outer for binds the
// collection's document nodes is classified scatter, and every node
// attributes its results to the document each came from, so the
// coordinator answers it byte-identically to a single node at every slot
// count. (Attributing by outer binding failed here: a document node is
// not a base element, so every node refused the view.)
func TestDocumentNodeBindingScatters(t *testing.T) {
	mustScatterLikeOneNode(t, `for $d in fn:collection("part-*") return <n>{$d/books//article/fm/tl}</n>`)
}

// TestDocumentNodeJoinScatters: the same document-node binding joined to
// the broadcast authors.xml. The coordinator scatters it, and each node
// must run it one unit per document, as a single Database does, to
// attribute its results. (Evaluated whole, the view could not be
// attributed, and every node refused it.)
func TestDocumentNodeJoinScatters(t *testing.T) {
	mustScatterLikeOneNode(t, testkit.DocNodeJoin)
}

// TestSideEqualityJoinScatters: a one-clause collection view whose where
// compares each article with the broadcast authors.xml. Each node runs it
// one unit per document; a unit must not answer from an earlier unit's
// articles.
func TestSideEqualityJoinScatters(t *testing.T) {
	mustScatterLikeOneNode(t, testkit.SideEqJoin)
}

// TestLiteralDocumentNodeScatters: a view whose outer for binds one
// partitioned document's node scatters too. The node holding part-00.xml
// owns every result by that document's ID; the other nodes have none.
func TestLiteralDocumentNodeScatters(t *testing.T) {
	mustScatterLikeOneNode(t, `for $d in fn:doc(part-00.xml) return <n>{$d/books//article/fm/tl}</n>`)
}

// mustScatterLikeOneNode searches view on a single Database and on
// clusters of one to three slots over the same random corpora, in full
// and as a top-3 disjunctive search, and requires identical answers.
func mustScatterLikeOneNode(t *testing.T, view string) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, slots := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("seed%02d/slots%d", seed, slots), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(slots)))
				tc := startCluster(t, slots, nil)
				var rec recorder
				testkit.FillEqCorpus(t, rng, 3+rng.Intn(10), &rec)
				db := vxml.Open()
				for _, d := range rec.docs {
					db.MustAdd(d[0], d[1])
					if err := tc.coord.AddDocument(context.Background(), d[0], d[1]); err != nil {
						t.Fatal(err)
					}
				}
				v, err := db.DefineView(view)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tc.coord.DefineView(context.Background(), "dn", view, false); err != nil {
					t.Fatal(err)
				}
				kws := testkit.KeywordsFor(rng)
				mustSearchBoth(t, "full", db, v, tc.coord, "dn", kws, &vxml.Options{})
				mustSearchBoth(t, "top3 disjunctive", db, v, tc.coord, "dn", kws, &vxml.Options{TopK: 3, Disjunctive: true})
			})
		}
	}
}
