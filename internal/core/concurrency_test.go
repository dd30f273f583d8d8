package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/store"
)

// TestConcurrentSearchAndIngest hammers parallel Search calls against
// interleaved AddXML from multiple goroutines. The view references only the
// initial documents, so every search must return the same results no matter
// how many unrelated ingests land mid-flight: a deviation is a torn read.
// Run under -race to catch unsynchronized access.
func TestConcurrentSearchAndIngest(t *testing.T) {
	e := New(store.New())
	if err := e.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if err := e.AddXML("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}
	// Reference answer, computed single-threaded.
	want, _, err := e.Search(v, []string{"XML", "Search"}, Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference search returned no results")
	}

	const (
		searchers          = 6
		writers            = 3
		searchesPerWorker  = 40
		documentsPerWriter = 15
	)
	var (
		wg       sync.WaitGroup
		searches atomic.Int64
		ingests  atomic.Int64
	)
	errCh := make(chan error, searchers+writers)

	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < searchesPerWorker; i++ {
				results, stats, err := e.Search(v, []string{"XML", "Search"}, Options{K: 10})
				if err != nil {
					errCh <- fmt.Errorf("searcher %d: %v", g, err)
					return
				}
				if len(results) != len(want) {
					errCh <- fmt.Errorf("searcher %d: torn read: %d results, want %d", g, len(results), len(want))
					return
				}
				for j, r := range results {
					if r.Rank != want[j].Rank || r.Score != want[j].Score {
						errCh <- fmt.Errorf("searcher %d: result %d diverged: rank %d score %v, want rank %d score %v",
							g, j, r.Rank, r.Score, want[j].Rank, want[j].Score)
						return
					}
				}
				if stats.PDTNodes < 0 || stats.ViewSize < 0 || stats.BaseData < 0 {
					errCh <- fmt.Errorf("searcher %d: negative stats: %+v", g, stats)
					return
				}
				searches.Add(1)
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < documentsPerWriter; i++ {
				name := fmt.Sprintf("extra-%d-%d.xml", g, i)
				doc := fmt.Sprintf("<extra><note>filler %d %d with xml search words</note></extra>", g, i)
				if err := e.AddXML(name, doc); err != nil {
					errCh <- fmt.Errorf("writer %d: %v", g, err)
					return
				}
				ingests.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := searches.Load(); got != searchers*searchesPerWorker {
		t.Errorf("completed searches = %d, want %d", got, searchers*searchesPerWorker)
	}
	if got := ingests.Load(); got != writers*documentsPerWriter {
		t.Errorf("completed ingests = %d, want %d", got, writers*documentsPerWriter)
	}
	// After the storm, the collection holds every ingested document and
	// both original ones, each with its two indices.
	docs := e.Store.Docs()
	wantDocs := 2 + writers*documentsPerWriter
	if len(docs) != wantDocs {
		t.Errorf("documents = %d, want %d", len(docs), wantDocs)
	}
	e.RLock()
	for _, d := range docs {
		if e.PathIndex(d.Name) == nil || e.InvIndex(d.Name) == nil {
			t.Errorf("document %q missing an index", d.Name)
		}
	}
	e.RUnlock()
}

// TestConcurrentStatsMonotonic checks that the shared access counters only
// grow while searches and ingests race: a concurrent decrement or lost
// update would show up as a non-monotonic observation.
func TestConcurrentStatsMonotonic(t *testing.T) {
	e := New(store.New())
	if err := e.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if err := e.AddXML("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	v, err := e.CompileView(figure2View)
	if err != nil {
		t.Fatal(err)
	}

	var workers sync.WaitGroup
	errCh := make(chan error, 6)
	stopObserver := make(chan struct{})
	observerDone := make(chan struct{})
	go func() { // observer: counters must never decrease
		defer close(observerDone)
		lastFetches, lastBytes := 0, 0
		for {
			select {
			case <-stopObserver:
				return
			default:
			}
			f, b := e.Store.SubtreeFetches(), e.Store.BytesFetched()
			if f < lastFetches || b < lastBytes {
				errCh <- fmt.Errorf("counters went backwards: fetches %d->%d bytes %d->%d", lastFetches, f, lastBytes, b)
				return
			}
			lastFetches, lastBytes = f, b
			// Sample, don't busy-spin: the observer must not peg a core
			// and starve the workers it is observing.
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 30; i++ {
				if _, _, err := e.Search(v, []string{"xml"}, Options{K: 3}); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	// One writer interleaves ingests with the searches above.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; i < 10; i++ {
			if err := e.AddXML(fmt.Sprintf("mono-%d.xml", i), "<m><x>xml</x></m>"); err != nil {
				errCh <- err
				return
			}
		}
	}()

	workers.Wait()
	close(stopObserver)
	<-observerDone
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if e.Store.SubtreeFetches() == 0 {
		t.Error("no subtree fetches recorded across 120 materializing searches")
	}
}

// TestConcurrentCompileAndExplain exercises the read-mostly entry points
// (view compilation, Explain) against concurrent ingest.
func TestConcurrentCompileAndExplain(t *testing.T) {
	e := New(store.New())
	if err := e.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if err := e.AddXML("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v, err := e.CompileView(figure2View)
				if err != nil {
					errCh <- err
					return
				}
				if plan := e.Explain(v, []string{"xml", "search"}); plan == "" {
					errCh <- fmt.Errorf("empty explain plan")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := e.AddXML(fmt.Sprintf("ce-%d.xml", i), "<d><v>text</v></d>"); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
