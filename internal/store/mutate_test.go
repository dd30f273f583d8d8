package store

import (
	"errors"
	"fmt"
	"testing"

	"vxml/internal/dewey"
)

func TestReplaceXML(t *testing.T) {
	s := New()
	old, err := s.AddXML("a.xml", "<a><t>old text</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	repl, err := s.ReplaceXML("a.xml", "<a><t>new text</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	if repl.DocID == old.DocID {
		t.Fatalf("replacement reused document ID %d", old.DocID)
	}
	if got := s.Doc("a.xml"); got != repl {
		t.Fatalf("Doc resolves to %v, want replacement", got)
	}
	if docs := DocsMatching(s, "*"); len(docs) != 1 || docs[0] != repl {
		t.Fatalf("Docs = %v", docs)
	}
	if got := s.TotalBytes(); got != repl.Root.ByteLen {
		t.Errorf("TotalBytes = %d, want %d (old document's bytes still counted?)", got, repl.Root.ByteLen)
	}
	if got := mutations(s); got != 1 {
		t.Errorf("mutations = %d, want 1", got)
	}
}

func TestReplaceUnknownName(t *testing.T) {
	s := New()
	if _, err := s.ReplaceXML("absent.xml", "<a/>"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("err = %v, want ErrUnknownName", err)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	doc, err := s.AddXML("a.xml", "<a><t>text</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddXML("b.xml", "<b><t>more</t></b>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a.xml"); err != nil {
		t.Fatal(err)
	}
	if s.Doc("a.xml") != nil {
		t.Error("deleted document still resolvable by name")
	}
	if docs := DocsMatching(s, "*"); len(docs) != 1 || docs[0].Name != "b.xml" {
		t.Errorf("Docs = %v", docs)
	}
	if got := DocsMatching(s, "*.xml"); len(got) != 1 {
		t.Errorf("DocsMatching still sees %d docs", len(got))
	}
	if _, ok := s.InfoByID(doc.DocID); ok {
		t.Error("deleted document's ID entry not swept with no pinned readers")
	}
	if err := s.Delete("a.xml"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("double delete err = %v, want ErrUnknownName", err)
	}
	// The name is free again: re-adding succeeds with a fresh ID.
	if _, err := s.AddXML("a.xml", "<a><t>again</t></a>"); err != nil {
		t.Fatalf("re-add after delete: %v", err)
	}
}

func TestTombstonesSurviveUntilUnpin(t *testing.T) {
	s := New()
	doc, err := s.AddXML("a.xml", "<a><t>pinned text</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	id := doc.Root.Children[0].ID
	s.Pin()
	if err := s.Delete("a.xml"); err != nil {
		t.Fatal(err)
	}
	// A reader that planned before the delete keeps resolving the subtree.
	if n := s.Subtree(id); n == nil || n.Value != "pinned text" {
		t.Fatalf("pinned Subtree = %v, want old subtree", n)
	}
	if s.Tombstones() != 1 {
		t.Errorf("Tombstones = %d, want 1", s.Tombstones())
	}
	// Name lookups — what any new search plans from — already miss.
	if s.Doc("a.xml") != nil || len(s.InfosMatching("*")) != 0 {
		t.Error("deleted document still visible to name lookups while pinned")
	}
	s.Unpin()
	if s.Subtree(id) != nil {
		t.Error("tombstone not swept after last reader unpinned")
	}
	if s.Tombstones() != 0 {
		t.Errorf("Tombstones = %d after sweep, want 0", s.Tombstones())
	}
}

func TestReplaceTombstonesOldSubtree(t *testing.T) {
	s := New()
	old, err := s.AddXML("a.xml", "<a><t>old</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	oldID := old.Root.Children[0].ID
	s.Pin()
	repl, err := s.ReplaceXML("a.xml", "<a><t>new</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	// Both generations resolve while a reader is pinned; the old one
	// disappears with the last reader.
	if n := s.Subtree(oldID); n == nil || n.Value != "old" {
		t.Fatalf("old subtree = %v while pinned", n)
	}
	newID := repl.Root.Children[0].ID
	if n := s.Subtree(newID); n == nil || n.Value != "new" {
		t.Fatalf("new subtree = %v", n)
	}
	s.Unpin()
	if s.Subtree(oldID) != nil {
		t.Error("old generation still resolvable after unpin")
	}
	if n := s.Subtree(newID); n == nil || n.Value != "new" {
		t.Errorf("new generation swept by mistake: %v", n)
	}
}

func TestOverlappingPinsDelaySweep(t *testing.T) {
	s := New()
	doc, err := s.AddXML("a.xml", "<a><t>text</t></a>")
	if err != nil {
		t.Fatal(err)
	}
	s.Pin()
	s.Pin()
	if err := s.Delete("a.xml"); err != nil {
		t.Fatal(err)
	}
	s.Unpin()
	if _, ok := s.InfoByID(doc.DocID); !ok {
		t.Fatal("tombstone swept while a reader was still pinned")
	}
	s.Unpin()
	if _, ok := s.InfoByID(doc.DocID); ok {
		t.Fatal("tombstone survived the last unpin")
	}
}

func TestShardInfoMutations(t *testing.T) {
	s := NewSharded(4)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("doc-%d.xml", i)
		if _, err := s.AddXML(name, "<d><t>x</t></d>"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReplaceXML("doc-3.xml", "<d><t>y</t></d>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("doc-5.xml"); err != nil {
		t.Fatal(err)
	}
	if total := mutations(s); total != 2 {
		t.Errorf("mutations: per-shard sum %d, want 2", total)
	}
	// The replace counter landed on the replaced doc's shard.
	if got := s.ShardInfos()[s.ShardOf("doc-3.xml")].Mutations; got < 1 {
		t.Errorf("replaced doc's shard reports %d mutations", got)
	}
}

func TestMutatedDeweyAddressing(t *testing.T) {
	// After interleaved mutations, Dewey addressing over the survivors
	// still works and deleted IDs resolve to nothing.
	s := New()
	for i := 0; i < 4; i++ {
		if _, err := s.AddXML(fmt.Sprintf("d%d", i), fmt.Sprintf("<r><v>doc %d</v></r>", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	repl, err := s.ReplaceXML("d2", "<r><v>doc 2 v2</v></r>")
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Subtree(dewey.ID{repl.DocID, 1}); n == nil || n.Value != "doc 2 v2" {
		t.Errorf("replacement subtree = %v", n)
	}
	if n := s.Subtree(dewey.ID{2, 1}); n != nil {
		t.Errorf("deleted d1 subtree still resolves: %v", n)
	}
}

// TestIndexProbesAcrossConcurrentReplaces: a document's indices live in its
// name-table entry, which readers look up while a writer replaces and
// deletes documents. Every lookup of a registered name finds indices that
// answer for that entry's own content, and IndexProbes never decreases.
func TestIndexProbesAcrossConcurrentReplaces(t *testing.T) {
	s := NewSharded(2)
	for i := 0; i < 4; i++ {
		if _, err := s.AddXML(fmt.Sprintf("d%d", i), fmt.Sprintf("<r><v>word%d</v></r>", i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		last := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			_, iix, err := s.StoredIndices("d0")
			if err != nil {
				errs <- err
				return
			}
			if iix.Lookup("word0").Len() != 1 {
				errs <- fmt.Errorf("d0's indices do not list its own word")
				return
			}
			_, lookups := s.IndexProbes()
			if lookups < last {
				errs <- fmt.Errorf("IndexProbes went backwards: %d -> %d lookups", last, lookups)
				return
			}
			last = lookups
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.ReplaceXML("d0", fmt.Sprintf("<r><v>word0 round%d</v></r>", i)); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("d%d", 1+i%3)
		if err := s.Delete(name); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.StoredIndices(name); !errors.Is(err, ErrUnknownName) {
			t.Fatalf("StoredIndices of deleted %s = %v, want ErrUnknownName", name, err)
		}
		if _, err := s.AddXML(name, "<r><v>back</v></r>"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
