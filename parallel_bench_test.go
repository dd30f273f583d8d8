// Benchmarks for the sharded parallel query pipeline: one ranked keyword
// search over a collection view spanning a 120-document corpus, run
// sequentially (Parallelism: 1) and with the worker pool (Parallelism: 0 =
// GOMAXPROCS). Compare with
//
//	go test -bench=ShardedParallel -benchtime=10x
//
// The corpus, view and keywords come from internal/benchkit's collection
// builder — the same shape cmd/vxmlbench measures — so benchmark and
// harness numbers are directly comparable. The parallel configuration must
// return byte-identical results; the benchmark asserts that once before
// measuring.
package vxml_test

import (
	"testing"

	"vxml"
	"vxml/internal/benchkit"
)

// buildBenchCorpus loads the deterministic 120-part collection corpus plus
// the authors document the join view needs.
func buildBenchCorpus(b *testing.B, nDocs, articlesPerDoc int) *vxml.Database {
	b.Helper()
	db := vxml.Open()
	if err := benchkit.BuildCollectionCorpus(db, nDocs, articlesPerDoc, 4242); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkShardedParallelSearch measures the same top-10 ranked search
// over a 120-document collection view at Parallelism 1 (a pool of one)
// and Parallelism 0 (worker pool sized by GOMAXPROCS).
func BenchmarkShardedParallelSearch(b *testing.B) {
	db := buildBenchCorpus(b, 120, 8)
	view, err := db.DefineView(benchkit.CollectionView)
	if err != nil {
		b.Fatal(err)
	}
	kws := benchkit.CollectionKeywords()
	seq, _, err := db.Search(view, kws, &vxml.Options{TopK: 10, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	par, _, err := db.Search(view, kws, &vxml.Options{TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	if len(seq) != len(par) || len(seq) == 0 {
		b.Fatalf("parallel returned %d results, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if seq[i].XML != par[i].XML || seq[i].Score != par[i].Score {
			b.Fatalf("parallel result %d diverges from sequential", i)
		}
	}
	for name, parallelism := range map[string]int{"sequential": 1, "parallel": 0} {
		b.Run(name, func(b *testing.B) {
			opts := &vxml.Options{TopK: 10, Parallelism: parallelism}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := db.Search(view, kws, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
