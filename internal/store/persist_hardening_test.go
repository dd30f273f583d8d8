package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveRejectsManifestName(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if _, err := s.AddXML("MANIFEST", "<a><b>x</b></a>"); err != nil {
		t.Fatal(err)
	}
	err := SaveCorpus(s, dir)
	if err == nil || !strings.Contains(err.Error(), "MANIFEST") {
		t.Fatalf("Save with a document named MANIFEST: err = %v, want rejection", err)
	}
	// Nothing usable may be left behind — in particular no MANIFEST file
	// whose content is the document (or a manifest listing it).
	if _, statErr := os.Stat(filepath.Join(dir, "MANIFEST")); statErr == nil {
		t.Error("rejected save still wrote a MANIFEST file")
	}
}

// TestFailedSaveKeepsOldStateLoadable is the atomicity property: a save
// that fails part-way (here: on a name that cannot be a file name) must
// leave the previously saved corpus fully loadable — the old manifest is
// only ever replaced by a complete new one, via rename.
func TestFailedSaveKeepsOldStateLoadable(t *testing.T) {
	dir := t.TempDir()
	good := New()
	if _, err := good.AddXML("a.xml", "<a><t>alpha</t></a>"); err != nil {
		t.Fatal(err)
	}
	if _, err := good.AddXML("b.xml", "<b><t>beta</t></b>"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(good, dir); err != nil {
		t.Fatal(err)
	}

	bad := New()
	if _, err := bad.AddXML("c.xml", "<c><t>gamma</t></c>"); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.AddXML("MANIFEST", "<m><t>poison</t></m>"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(bad, dir); err == nil {
		t.Fatal("save of corpus with reserved name should fail")
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("directory no longer loads after failed save: %v", err)
	}
	docs := DocsMatching(loaded, "*")
	if len(docs) != 2 || loaded.Doc("a.xml") == nil || loaded.Doc("b.xml") == nil {
		t.Fatalf("loaded %d docs %v, want the pre-failure corpus", len(docs), docs)
	}
	// No temp droppings.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "savetmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestMutatedCorpusRoundTrip(t *testing.T) {
	s := NewSharded(3)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("part-%d.xml", i)
		if _, err := s.AddXML(name, fmt.Sprintf("<part><name>part %d</name></part>", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("part-1.xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReplaceXML("part-4.xml", "<part><name>part 4 revised</name></part>"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddXML("part-6.xml", "<part><name>part 6</name></part>"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := SaveCorpus(s, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.ShardCount(), s.ShardCount(); got != want {
		t.Errorf("shard count %d, want %d", got, want)
	}
	want := DocsMatching(s, "*")
	got := DocsMatching(loaded, "*")
	if len(got) != len(want) {
		t.Fatalf("loaded %d docs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].DocID != want[i].DocID {
			t.Errorf("doc %d: %s#%d, want %s#%d (gapped IDs not preserved)",
				i, got[i].Name, got[i].DocID, want[i].Name, want[i].DocID)
		}
		if got[i].Root.XMLString("") != want[i].Root.XMLString("") {
			t.Errorf("doc %s content changed across round trip", want[i].Name)
		}
	}
	// The ID sequence resumes past the saved maximum: a post-load ingest
	// cannot collide with a surviving document's Dewey space.
	added, err := loaded.AddXML("part-7.xml", "<part><name>part 7</name></part>")
	if err != nil {
		t.Fatal(err)
	}
	if maxID := want[len(want)-1].DocID; added.DocID <= maxID {
		t.Errorf("post-load ingest got ID %d, want > %d", added.DocID, maxID)
	}
}

func TestSaveRejectsManifestNameCaseInsensitively(t *testing.T) {
	// On case-insensitive filesystems (macOS, Windows) "manifest" resolves
	// to the manifest's own file; the guard must fold case.
	for _, name := range []string{"manifest", "Manifest", "mAnIfEsT"} {
		s := New()
		if _, err := s.AddXML(name, "<a><b>x</b></a>"); err != nil {
			t.Fatal(err)
		}
		if err := SaveCorpus(s, t.TempDir()); err == nil {
			t.Errorf("Save with document %q should be rejected", name)
		}
	}
}

func TestSaveRemovesStaleDocumentFiles(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if _, err := s.AddXML("a.xml", "<a><t>alpha</t></a>"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddXML("b.xml", "<b><t>beta</t></b>"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(s, dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("b.xml"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(s, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b.xml")); err == nil {
		t.Error("deleted document's file survived the re-save")
	}
}

func TestSavedFilesAreWorldReadable(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if _, err := s.AddXML("a.xml", "<a><t>x</t></a>"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(s, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.xml", "MANIFEST"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if perm := fi.Mode().Perm(); perm != 0o644 {
			t.Errorf("%s mode = %o, want 0644 (CreateTemp's 0600 leaked through)", name, perm)
		}
	}
}
