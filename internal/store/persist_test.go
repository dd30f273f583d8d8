package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vxml/internal/dewey"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Docs()) != 2 {
		t.Fatalf("loaded %d docs", len(loaded.Docs()))
	}
	// Document IDs — and content — survive the round trip.
	for _, doc := range s.Docs() {
		got := loaded.Doc(doc.Name)
		if got == nil || got.DocID != doc.DocID {
			t.Fatalf("doc %s: id %v vs %v", doc.Name, got, doc.DocID)
		}
		if got.Root.XMLString("") != doc.Root.XMLString("") {
			t.Errorf("doc %s content changed", doc.Name)
		}
	}
	// Dewey addressing still works.
	n := loaded.Subtree(dewey.MustParse("2.1.2"))
	if n == nil || n.Tag != "content" {
		t.Errorf("Subtree after load = %v", n)
	}
}

// TestLoadRefusesDirectoryWithoutManifest: only a directory Save wrote
// loads. Bare XML files without a MANIFEST, or a MANIFEST without the
// #!vxml header (the old bare-name format), are refused with an error that
// names the directory.
func TestLoadRefusesDirectoryWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	s := newStore(t)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "MANIFEST")
	if err := os.WriteFile(manifest, []byte("books.xml\nreviews.xml\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "header") {
		t.Errorf("headerless manifest: Load = %v, want an error naming %s and the missing header", err, dir)
	}
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("no manifest: Load = %v, want an error naming %s", err, dir)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("empty dir should fail")
	}
	if _, err := Load("/nonexistent/path"); err == nil {
		t.Error("missing dir should fail")
	}
}

func TestSaveRejectsUnsafeNames(t *testing.T) {
	s := New()
	if _, err := s.AddXML("../evil.xml", "<a><b>x</b></a>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(t.TempDir()); err == nil {
		t.Error("path traversal in name should be rejected")
	}
}
