// Disk-backend oracle: the disk-resident, DAG-compressed store is a pure
// storage strategy. A database opened over a SaveDisk directory must
// search byte-identically — rank, score, TF map, materialized XML,
// snippet — to the heap-backed database it was saved from, on every
// pipeline (Efficient, Baseline, GTP), sequential and parallel, with the
// query cache off and on; and a disk-backed corpus mutated through the
// public API must stay byte-identical to a heap corpus receiving the same
// operations, across restarts. A divergence means the DAG encode/decode,
// the persisted indices, or the cache invalidation broke ranking.
package vxml_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vxml"
	"vxml/internal/diskstore"
	"vxml/internal/testkit"
)

// diskOptsFor rotates cache/I/O configurations so the equivalence matrix
// also covers the uncomfortable corners: caches disabled (every fetch
// decodes from disk) and a tiny block cache under eviction pressure.
func diskOptsFor(trial int) diskstore.Options {
	switch trial % 3 {
	case 1:
		return diskstore.Options{DocCacheSize: -1, IndexCacheSize: -1}
	case 2:
		return diskstore.Options{CacheBytes: 4096, BlockSize: 512, DocCacheSize: -1}
	default:
		return diskstore.Options{}
	}
}

// TestDiskHeapSearchEquivalence builds randomized heap corpora, saves each
// to disk, reopens, and drives the full setting matrix (4 view shapes x 8
// pipeline/parallelism/cache cells) over both backends.
func TestDiskHeapSearchEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9200 + seed))
			heap := testkit.BuildEqCorpus(t, rng, 4+rng.Intn(20))
			dir := t.TempDir()
			if err := heap.SaveDisk(dir); err != nil {
				t.Fatal(err)
			}
			disk, err := vxml.OpenDiskOptions(dir, diskOptsFor(int(seed)))
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()

			// Corpus identity first: same names in the same enumeration
			// order, same shard assignment, same total size.
			wantNames, gotNames := heap.DocumentNames(), disk.DocumentNames()
			if len(wantNames) != len(gotNames) {
				t.Fatalf("disk corpus has %d documents, want %d", len(gotNames), len(wantNames))
			}
			for i := range wantNames {
				if wantNames[i] != gotNames[i] {
					t.Fatalf("enumeration diverged at %d: %q vs %q", i, gotNames[i], wantNames[i])
				}
			}
			if got, want := disk.TotalBytes(), heap.TotalBytes(); got != want {
				t.Fatalf("TotalBytes = %d, want %d", got, want)
			}
			wantShards, gotShards := heap.ShardStats(), disk.ShardStats()
			if len(wantShards) != len(gotShards) {
				t.Fatalf("shard count %d, want %d", len(gotShards), len(wantShards))
			}
			for i := range wantShards {
				if gotShards[i].Documents != wantShards[i].Documents || gotShards[i].Bytes != wantShards[i].Bytes {
					t.Fatalf("shard %d: %+v, want %+v", i, gotShards[i], wantShards[i])
				}
			}

			kws := testkit.KeywordsFor(rng)
			topK := rng.Intn(3) * 4
			disjunctive := rng.Intn(2) == 0
			for vi, viewText := range testkit.EqViews {
				hv, err := heap.DefineView(viewText)
				if err != nil {
					t.Fatal(err)
				}
				dv, err := disk.DefineView(viewText)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range testkit.MutSettings {
					opts := &vxml.Options{TopK: topK, Disjunctive: disjunctive, Approach: s.Approach, Parallelism: s.Parallel, Cache: s.Cache}
					want, _, err := heap.Search(hv, kws, opts)
					if err != nil {
						t.Fatalf("view %d %s heap: %v", vi, s.Label, err)
					}
					got, _, err := disk.Search(dv, kws, opts)
					if err != nil {
						t.Fatalf("view %d %s disk: %v", vi, s.Label, err)
					}
					testkit.MustEqualResultsOpt(t, fmt.Sprintf("view %d %s disk-vs-heap", vi, s.Label), got, want, s.Snippets)
				}
			}

			stats, ok := disk.DiskStats()
			if !ok {
				t.Fatal("DiskStats not available on disk-backed database")
			}
			if stats.Documents != len(wantNames) || stats.DataBytes <= 0 {
				t.Fatalf("implausible disk stats: %+v", stats)
			}
			if _, ok := heap.DiskStats(); ok {
				t.Fatal("heap-backed database claims disk stats")
			}
		})
	}
}

// TestDiskHeapMutationEquivalence is the mutation matrix: a heap and a
// disk database receive the identical randomized Add/Replace/Delete
// sequence (same-seeded generators), then every view and setting cell must
// agree — and must still agree after the disk database is closed and
// reopened, which exercises the incremental manifest fold and the lazy
// dedup-table rebuild.
func TestDiskHeapMutationEquivalence(t *testing.T) {
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seedRng := rand.New(rand.NewSource(int64(9300 + trial)))
			authorsXML := testkit.AuthorsXML(seedRng)
			opSeed := seedRng.Int63()

			heap := vxml.Open()
			heap.MustAdd("authors.xml", authorsXML)
			dir := t.TempDir()
			disk, err := vxml.OpenDiskOptions(dir, diskOptsFor(trial))
			if err != nil {
				t.Fatal(err)
			}
			disk.MustAdd("authors.xml", authorsXML)

			finalHeap := testkit.MutateRandomly(t, heap, rand.New(rand.NewSource(opSeed)), nil)
			finalDisk := testkit.MutateRandomly(t, disk, rand.New(rand.NewSource(opSeed)), nil)
			if len(finalHeap) != len(finalDisk) {
				t.Fatalf("op sequences diverged: %d vs %d final documents", len(finalHeap), len(finalDisk))
			}

			kws := testkit.KeywordsFor(seedRng)
			compare := func(d *vxml.Database, phase string) {
				t.Helper()
				for vi, viewText := range testkit.MutViews {
					hv, err := heap.DefineView(viewText)
					if err != nil {
						t.Fatal(err)
					}
					dv, err := d.DefineView(viewText)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range testkit.MutSettings {
						opts := &vxml.Options{TopK: 8, Approach: s.Approach, Parallelism: s.Parallel, Cache: s.Cache}
						want, _, err := heap.Search(hv, kws, opts)
						if err != nil {
							t.Fatalf("%s view %d %s heap: %v", phase, vi, s.Label, err)
						}
						got, _, err := d.Search(dv, kws, opts)
						if err != nil {
							t.Fatalf("%s view %d %s disk: %v", phase, vi, s.Label, err)
						}
						testkit.MustEqualResultsOpt(t, fmt.Sprintf("%s view %d %s", phase, vi, s.Label), got, want, s.Snippets)
					}
				}
			}
			compare(disk, "live")

			// Restart: everything the mutations wrote must have persisted
			// incrementally — no save step between mutate and reopen.
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := vxml.OpenDiskOptions(dir, diskOptsFor(trial+1))
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			wantNames, gotNames := heap.DocumentNames(), reopened.DocumentNames()
			if len(wantNames) != len(gotNames) {
				t.Fatalf("reopened corpus has %d documents, want %d", len(gotNames), len(wantNames))
			}
			for i := range wantNames {
				if wantNames[i] != gotNames[i] {
					t.Fatalf("reopened enumeration diverged at %d: %q vs %q", i, gotNames[i], wantNames[i])
				}
			}
			compare(reopened, "reopened")

			// The reopened database keeps evolving identically.
			extra := testkit.RandomPartDoc(seedRng, 1000+trial)
			heap.MustAdd("part-extra.xml", extra)
			reopened.MustAdd("part-extra.xml", extra)
			compare(reopened, "post-reopen-add")
		})
	}
}

// TestDiskBackendConcurrentSearches races many goroutines over one
// disk-backed database — mixed views, pipelines and parallelism — against
// precomputed heap references. Under -race this pins the thread safety of
// the block, document and index caches on the shared read path.
func TestDiskBackendConcurrentSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(9400))
	heap := testkit.BuildEqCorpus(t, rng, 16)
	dir := t.TempDir()
	if err := heap.SaveDisk(dir); err != nil {
		t.Fatal(err)
	}
	// Small block cache forces eviction churn under concurrency.
	disk, err := vxml.OpenDiskOptions(dir, diskstore.Options{CacheBytes: 8192, BlockSize: 512, DocCacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	type job struct {
		label string
		view  *vxml.View
		kws   []string
		opts  vxml.Options
		want  []vxml.Result
	}
	var jobs []job
	for vi, viewText := range testkit.EqViews {
		hv, err := heap.DefineView(viewText)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := disk.DefineView(viewText)
		if err != nil {
			t.Fatal(err)
		}
		kws := testkit.KeywordsFor(rng)
		for _, s := range testkit.MutSettings {
			opts := vxml.Options{TopK: 8, Approach: s.Approach, Parallelism: s.Parallel, Cache: s.Cache}
			want, _, err := heap.Search(hv, kws, &opts)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{fmt.Sprintf("view %d %s", vi, s.Label), dv, kws, opts, want})
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+w)%len(jobs)]
				o := j.opts
				got, _, err := disk.Search(j.view, j.kws, &o)
				if err != nil {
					errs <- fmt.Sprintf("worker %d %s: %v", w, j.label, err)
					return
				}
				if testkit.RenderResults(got) != testkit.RenderResults(j.want) {
					errs <- fmt.Sprintf("worker %d %s: results diverged from heap reference", w, j.label)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	stats, ok := disk.DiskStats()
	if !ok {
		t.Fatal("DiskStats unavailable")
	}
	if stats.BlockCache.Hits+stats.BlockCache.Misses == 0 {
		t.Error("concurrent searches never touched the block cache")
	}
	if stats.BlockCache.Bytes > stats.BlockCache.Capacity {
		t.Errorf("block cache over budget: %d > %d", stats.BlockCache.Bytes, stats.BlockCache.Capacity)
	}
}
