package diskstore

import (
	"reflect"
	"sync"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/store"
	"vxml/internal/xmltree"
)

// tableBackend opens an empty corpus in dir and reopens a corpus from dir
// the way its backend persists one.
type tableBackend struct {
	name   string
	open   func(t *testing.T, dir string) store.Corpus
	reopen func(t *testing.T, c store.Corpus, dir string) store.Corpus
}

var tableBackends = []tableBackend{
	{
		name: "heap",
		open: func(*testing.T, string) store.Corpus { return store.NewSharded(4) },
		reopen: func(t *testing.T, c store.Corpus, dir string) store.Corpus {
			if err := store.SaveCorpus(c, dir); err != nil {
				t.Fatal(err)
			}
			re, err := store.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			return re
		},
	},
	{
		name: "disk",
		open: func(t *testing.T, dir string) store.Corpus {
			ds, err := Init(dir, 4, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() }) //nolint:errcheck
			return ds
		},
		reopen: func(t *testing.T, c store.Corpus, dir string) store.Corpus {
			if err := c.(*Store).Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { re.Close() }) //nolint:errcheck
			return re
		},
	},
}

// putDoc registers (or, with replace, swaps in) name under a freshly
// reserved ID through the Corpus seam alone.
func putDoc(t *testing.T, c store.Corpus, name, text string, replace bool) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString("<d><t>"+text+"</t></d>", name, c.ReserveID())
	if err != nil {
		t.Fatal(err)
	}
	pix, iix := pathindex.Build(doc), invindex.Build(doc)
	if replace {
		err = c.ReplaceIndexed(doc, pix, iix)
	} else {
		err = c.RegisterIndexed(doc, pix, iix)
	}
	if err != nil {
		t.Fatalf("putting %s: %v", name, err)
	}
	return doc
}

// TestDocumentTableOnBothBackends runs the document table both backends
// embed through each of them: tombstones for pinned readers, the ID
// sequence and the mutation counters across a reopen, and pinned readers
// racing a writer.
func TestDocumentTableOnBothBackends(t *testing.T) {
	for _, b := range tableBackends {
		t.Run(b.name, func(t *testing.T) {
			dir := t.TempDir()
			c := b.open(t, dir)
			oldA := putDoc(t, c, "a.xml", "old a", false)
			docB := putDoc(t, c, "b.xml", "doc b", false)
			putDoc(t, c, "c.xml", "doc c", false)

			// A pinned reader resolves the replaced and the deleted
			// document by ID; name lookups already miss them.
			c.Pin()
			newA := putDoc(t, c, "a.xml", "new a", true)
			if err := c.Delete("b.xml"); err != nil {
				t.Fatal(err)
			}
			for _, old := range []*xmltree.Document{oldA, docB} {
				if info, ok := c.InfoByID(old.DocID); !ok || info.Name != old.Name {
					t.Fatalf("pinned InfoByID(%d) = %+v, %v; want %s", old.DocID, info, ok, old.Name)
				}
				if n := c.Subtree(dewey.ID{old.DocID, 1}); n == nil || n.Value != old.Root.Children[0].Value {
					t.Fatalf("pinned Subtree of %s = %v", old.Name, n)
				}
			}
			if _, ok := c.Info("b.xml"); ok {
				t.Fatal("deleted document still visible by name while pinned")
			}
			if info, _ := c.Info("a.xml"); info.DocID != newA.DocID {
				t.Fatalf("a.xml resolves to document %d, want the replacement %d", info.DocID, newA.DocID)
			}
			if n := c.Tombstones(); n != 2 {
				t.Fatalf("Tombstones = %d while pinned, want 2", n)
			}
			c.Unpin()
			if n := c.Tombstones(); n != 0 {
				t.Fatalf("Tombstones = %d after the last unpin, want 0", n)
			}
			for _, old := range []*xmltree.Document{oldA, docB} {
				if _, ok := c.InfoByID(old.DocID); ok || c.Subtree(dewey.ID{old.DocID, 1}) != nil {
					t.Fatalf("%s (document %d) still resolves after the last unpin", old.Name, old.DocID)
				}
			}
			if got := mutations(c); got != 2 {
				t.Fatalf("mutations = %d, want 2", got)
			}

			// Reopened, the corpus keeps its documents, resumes its ID
			// sequence past the largest ID and counts mutations from 0.
			infos := c.Infos()
			c = b.reopen(t, c, dir)
			if got := c.Infos(); !reflect.DeepEqual(got, infos) {
				t.Fatalf("Infos after reopen = %+v, want %+v", got, infos)
			}
			if id := c.ReserveID(); id != newA.DocID+1 {
				t.Fatalf("ReserveID after reopen = %d, want %d", id, newA.DocID+1)
			}
			if got := mutations(c); got != 0 {
				t.Fatalf("mutations after reopen = %d, want 0", got)
			}
			putDoc(t, c, "c.xml", "doc c again", true)
			if got := mutations(c); got != 1 {
				t.Fatalf("mutations after one more replace = %d, want 1", got)
			}

			// Readers that plan from metadata and then fetch by ID under a
			// pin never miss a document a concurrent writer replaces.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan string, 1)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						c.Pin()
						for _, info := range c.Infos() {
							if c.Subtree(dewey.ID{info.DocID}) == nil {
								select {
								case errs <- info.Name:
								default:
								}
							}
						}
						c.Unpin()
					}
				}()
			}
			for i := 0; i < 100; i++ {
				putDoc(t, c, "a.xml", "round", true)
			}
			close(stop)
			wg.Wait()
			select {
			case name := <-errs:
				t.Fatalf("a pinned reader lost %s to a concurrent replace", name)
			default:
			}
			if n := c.Tombstones(); n != 0 {
				t.Fatalf("Tombstones = %d with no reader pinned, want 0", n)
			}
		})
	}
}
