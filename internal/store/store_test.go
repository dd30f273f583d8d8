package store

import (
	"errors"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/xmltree"
)

const booksXML = `<books><book><isbn>111</isbn><title>XML Web Services</title></book></books>`
const reviewsXML = `<reviews><review><isbn>111</isbn><content>about search</content></review></reviews>`

func newStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	if _, err := s.AddXML("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddXML("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDocIDsAssignedSequentially(t *testing.T) {
	s := newStore(t)
	if s.Doc("books.xml").DocID != 1 || s.Doc("reviews.xml").DocID != 2 {
		t.Errorf("doc IDs: %d, %d", s.Doc("books.xml").DocID, s.Doc("reviews.xml").DocID)
	}
	if info, _ := s.InfoByID(2); info.Name != "reviews.xml" {
		t.Error("InfoByID(2) wrong")
	}
	if id := s.ReserveID(); id != 3 {
		t.Errorf("ReserveID = %d, want 3", id)
	}
}

func TestDocsOrdered(t *testing.T) {
	s := newStore(t)
	docs := DocsMatching(s, "*")
	if len(docs) != 2 || docs[0].Name != "books.xml" || docs[1].Name != "reviews.xml" {
		t.Errorf("DocsMatching(*) = %v", docs)
	}
}

func TestSubtreeFetchCounted(t *testing.T) {
	s := newStore(t)
	n := s.Subtree(dewey.MustParse("2.1.2"))
	if n == nil || n.Tag != "content" {
		t.Fatalf("Subtree = %v", n)
	}
	if s.SubtreeFetches() != 1 || s.BytesFetched() != n.ByteLen {
		t.Errorf("counters: %d fetches, %d bytes", s.SubtreeFetches(), s.BytesFetched())
	}
	if s.Subtree(dewey.MustParse("9.1")) != nil {
		t.Error("unknown doc should return nil")
	}
	if s.Subtree(nil) != nil {
		t.Error("empty ID should return nil")
	}
}

func TestValue(t *testing.T) {
	s := newStore(t)
	if n := s.Subtree(dewey.MustParse("1.1.1")); n == nil || n.Value != "111" {
		t.Errorf("Subtree(1.1.1) = %v, want the leaf valued 111", n)
	}
	if n := s.Subtree(dewey.MustParse("1.1.9")); n != nil {
		t.Errorf("missing element fetched as %v", n)
	}
}

func TestAddParsed(t *testing.T) {
	s := newStore(t)
	root := xmltree.NewElement("r")
	root.AppendLeaf("x", "hello")
	doc := s.AddParsed(&xmltree.Document{Name: "extra.xml", Root: root})
	if doc.DocID != 3 {
		t.Errorf("DocID = %d", doc.DocID)
	}
	if got := doc.Root.Children[0].ID.String(); got != "3.1" {
		t.Errorf("child ID = %q", got)
	}
}

func TestDuplicateName(t *testing.T) {
	s := newStore(t)
	if _, err := s.AddXML("books.xml", booksXML); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("AddXML duplicate: err = %v, want ErrDuplicateName", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate AddParsed name")
		}
	}()
	root := xmltree.NewElement("r")
	s.AddParsed(&xmltree.Document{Name: "books.xml", Root: root})
}

func TestTotalBytes(t *testing.T) {
	s := newStore(t)
	want := s.Doc("books.xml").Root.ByteLen + s.Doc("reviews.xml").Root.ByteLen
	if got := s.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestShardingInvariants(t *testing.T) {
	s := NewSharded(4)
	if s.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", s.ShardCount())
	}
	names := []string{"part-0.xml", "part-1.xml", "part-2.xml", "part-3.xml", "part-4.xml", "other.xml"}
	for i, name := range names {
		if _, err := s.AddXML(name, "<d><v>"+name+"</v></d>"); err != nil {
			t.Fatal(err)
		}
		if got := s.Doc(name); got == nil || got.DocID != int32(i+1) {
			t.Fatalf("doc %q not registered with sequential ID", name)
		}
	}
	// Hash assignment is stable and per-shard counters add up.
	docs, bytes := 0, 0
	for _, info := range s.ShardInfos() {
		docs += info.Documents
		bytes += info.Bytes
	}
	if docs != len(names) || bytes != s.TotalBytes() {
		t.Fatalf("shard counters (%d docs, %d bytes) vs corpus (%d docs, %d bytes)", docs, bytes, len(names), s.TotalBytes())
	}
	for _, name := range names {
		sh := s.ShardOf(name)
		if sh < 0 || sh >= 4 || sh != s.ShardOf(name) {
			t.Fatalf("ShardOf(%q) unstable or out of range", name)
		}
	}
	// DocsMatching returns pattern matches in document ID order.
	matched := DocsMatching(s, "part-*")
	if len(matched) != 5 {
		t.Fatalf("DocsMatching(part-*) = %d docs, want 5", len(matched))
	}
	for i := 1; i < len(matched); i++ {
		if matched[i-1].DocID >= matched[i].DocID {
			t.Fatalf("DocsMatching not in document ID order")
		}
	}
	if got := DocsMatching(s, "other.xml"); len(got) != 1 || got[0].Name != "other.xml" {
		t.Fatalf("DocsMatching(exact) = %v", got)
	}
	if got := DocsMatching(s, "missing-*"); len(got) != 0 {
		t.Fatalf("DocsMatching(missing-*) = %v, want empty", got)
	}
	// Infos() remains insertion-ordered across shards.
	all := s.Infos()
	for i := range all {
		if all[i].DocID != int32(i+1) {
			t.Fatalf("Infos() out of insertion order: %v", all[i])
		}
	}
}

func TestDocByIDLockFreeAcrossShards(t *testing.T) {
	s := NewSharded(3)
	doc, err := s.AddXML("a.xml", "<a><b>x</b></a>")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.EntryByID(doc.DocID); got.doc != doc {
		t.Fatalf("EntryByID(%d) = %v", doc.DocID, got.doc)
	}
	if got, ok := s.EntryByID(99); ok {
		t.Fatalf("EntryByID(unknown) = %v, want none", got.doc)
	}
}

// mutations sums the per-shard mutation counters.
func mutations(c Corpus) int {
	total := 0
	for _, info := range c.ShardInfos() {
		total += info.Mutations
	}
	return total
}
