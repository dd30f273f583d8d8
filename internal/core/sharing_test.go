package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/scoring"
	"vxml/internal/testkit"
)

// TestResultsShareReadOnlyTrees: a result shares nodes with the corpus —
// Materialize hands out the store's base subtrees and a materialized view
// its own trees — so no search, snippet or mutation may write into them.
// Every stored document serializes byte-identically before and after many
// concurrent searches (direct and planned, sequential and pooled) racing a
// Replace, on the heap store and on the disk store. Under -race any write
// to a shared node is also reported as a race with the readers.
func TestResultsShareReadOnlyTrees(t *testing.T) {
	heap := eqEngine(t, 61, 10)
	dir := t.TempDir()
	heap.RLock()
	_, err := diskstore.Create(heap.Store, dir, diskstore.Options{}, nil)
	heap.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.OpenWith(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for name, e := range map[string]*core.Engine{"heap": heap, "disk": core.New(ds)} {
		t.Run(name, func(t *testing.T) { searchWithoutWrites(t, e) })
	}
}

func searchWithoutWrites(t *testing.T, e *core.Engine) {
	docs := e.Store.Docs()
	before := make([]string, len(docs))
	for i, d := range docs {
		before[i] = d.Root.XMLString("")
	}
	views := make([]*core.View, len(testkit.EqViews))
	for i, text := range testkit.EqViews {
		v, err := e.CompileView(text)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
		// Promote every view before the searchers start, so the
		// materialized tier hands out its trees too.
		for range catalog.DefaultPromoteHits {
			if _, _, err := e.Search(v, []string{"copper"}, core.Options{Plan: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := e.Catalog.Stats(); st.Materialized != len(views) {
		t.Fatalf("%d of %d views materialized before the searchers start", st.Materialized, len(views))
	}

	const searchers = 6
	var wg sync.WaitGroup
	errs := make(chan error, searchers+1)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 24; i++ {
				kws, err := core.NormalizeKeywords(testkit.KeywordsFor(rng))
				if err != nil {
					errs <- err
					return
				}
				opts := core.Options{K: 6, Plan: i%2 == 0, Parallelism: 1 + g%2}
				results, _, err := e.Search(views[(g+i)%len(views)], kws, opts)
				if err != nil {
					errs <- fmt.Errorf("searcher %d: %w", g, err)
					return
				}
				for _, r := range results {
					r.Element.XMLString("")
					scoring.Snippet(r.Element, kws, 80)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := len(docs) - 1
		for i := 0; i < 4; i++ {
			if err := e.ReplaceXML(docs[last].Name, before[last]); err != nil {
				errs <- fmt.Errorf("replace: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The replaced document's retired tree is compared too: readers that
	// planned before the Replace may still be serializing it.
	for i, d := range docs {
		if got := d.Root.XMLString(""); got != before[i] {
			t.Errorf("%s changed under concurrent searches:\nbefore %.200s\nafter  %.200s", d.Name, before[i], got)
		}
	}
}
