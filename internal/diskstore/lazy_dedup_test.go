package diskstore

// Cold-open laziness: opening an existing store must not scan the data log
// to rebuild the dedup (DAG) tables — that work is deferred to the first
// mutation (writableLocked → loadDedupLocked), so a read-only open costs
// O(manifest) regardless of corpus size. The ds.dag field is the witness:
// nil means the data log was never scanned.

import (
	"testing"

	"vxml/internal/store"
	"vxml/internal/xmltree"
)

func TestColdOpenDefersDedupUntilFirstWrite(t *testing.T) {
	s := buildHeap(t, seedDocs(8))
	dir := t.TempDir()
	ds, err := Create(s, dir, Options{}, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer reopened.Close() //nolint:errcheck
	if reopened.dag != nil {
		t.Fatal("open scanned the data log: dag tables resident before any write")
	}

	// A full read workload — document trees, subtrees, persisted indices —
	// must be served without ever touching the dedup tables.
	for _, doc := range store.DocsMatching(reopened, "*") {
		if doc.Root == nil {
			t.Fatalf("document %q paged in without a root", doc.Name)
		}
		if sub := reopened.Subtree(doc.Root.ID); sub == nil {
			t.Fatalf("Subtree(%v) = nil", doc.Root.ID)
		}
		if _, _, err := reopened.StoredIndices(doc.Name); err != nil {
			t.Fatalf("StoredIndices(%q): %v", doc.Name, err)
		}
	}
	if reopened.dag != nil {
		t.Fatal("read workload loaded the dedup tables: reads must stay scan-free")
	}

	// The first mutation pays for the scan, exactly once — and the rebuilt
	// tables still deduplicate against pre-existing structure: an exact
	// duplicate of a resident document appends no new data bytes.
	doc, err := xmltree.ParseString(partXML(42), "fresh.xml", reopened.ReserveID())
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.RegisterParsed(doc); err != nil {
		t.Fatalf("RegisterParsed: %v", err)
	}
	if reopened.dag == nil {
		t.Fatal("first write did not load the dedup tables")
	}
	before := reopened.dataLen.Load()
	dup, err := xmltree.ParseString(partXML(1), "dup.xml", reopened.ReserveID())
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.RegisterParsed(dup); err != nil {
		t.Fatalf("RegisterParsed(dup): %v", err)
	}
	if after := reopened.dataLen.Load(); after != before {
		t.Fatalf("lazily rebuilt dedup tables missed resident structure: +%d data bytes for a duplicate", after-before)
	}
}
