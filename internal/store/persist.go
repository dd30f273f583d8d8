package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vxml/internal/xmltree"
)

// manifestName is the reserved file the manifest is written to. A document
// may not use it as its own name: the manifest write would silently
// overwrite the document (or the document the manifest), and the directory
// would load back as a different corpus.
const manifestName = "MANIFEST"

// manifestHeader opens a manifest and records the shard count; the lines
// that follow are "<docID>:<name>". Load refuses a manifest without it.
const manifestHeader = "#!vxml"

// Save writes every document to dir plus a manifest recording document IDs,
// load order and the shard count, so Dewey IDs and shard assignment are
// stable across a save/load round trip — including for a corpus that has
// seen replacements and deletions, whose ID sequence has gaps. Indices are
// rebuilt on load; they are deterministic functions of the documents.
//
// Every file, the manifest included, is written to a temporary name in dir
// and renamed into place, and the manifest is renamed last: a save that
// fails part-way never leaves a directory that half-loads — Load is driven
// by the manifest, which at every instant is either the previous complete
// one or the new complete one.
func (s *Store) Save(dir string) error { return SaveCorpus(s, dir) }

// SaveFile is one serialized corpus file as EmitSaveFiles produces it.
type SaveFile struct {
	// Name is the file's base name within a save directory: a document
	// name, or "MANIFEST" for the final manifest file.
	Name string
	// WriteTo streams the file's content. It may be called at most once.
	WriteTo func(w io.Writer) error
}

// EmitSaveFiles serializes the corpus in Save's on-disk format and passes
// each file to emit — every document first, the manifest last. It is the
// single serialization path shared by Save (which writes the files to a
// directory) and cluster snapshot shipping (which streams them over HTTP),
// so a snapshot never re-serializes a corpus the save path already knows
// how to write, and the two cannot drift. Name validation happens here:
// an unsafe or reserved document name fails the whole emission before the
// manifest is produced.
func EmitSaveFiles(c Corpus, emit func(SaveFile) error) error {
	var manifest strings.Builder
	fmt.Fprintf(&manifest, "%s shards=%d\n", manifestHeader, c.ShardCount())
	for _, doc := range c.Docs() {
		// EqualFold: on a case-insensitive filesystem (macOS, Windows) a
		// document named "manifest" would resolve to the same file the
		// manifest rename targets and be silently clobbered.
		if strings.EqualFold(doc.Name, manifestName) {
			return fmt.Errorf("store: save: document name %q is reserved for the manifest", doc.Name)
		}
		if strings.ContainsAny(doc.Name, "/\\\n") || strings.HasPrefix(doc.Name, manifestHeader) {
			return fmt.Errorf("store: save: document name %q is not a safe file name", doc.Name)
		}
		root := doc.Root
		if err := emit(SaveFile{Name: doc.Name, WriteTo: func(w io.Writer) error {
			return root.WriteXML(w, "")
		}}); err != nil {
			return fmt.Errorf("store: save %s: %w", doc.Name, err)
		}
		fmt.Fprintf(&manifest, "%d:%s\n", doc.DocID, doc.Name)
	}
	if err := emit(SaveFile{Name: manifestName, WriteTo: func(w io.Writer) error {
		_, err := io.WriteString(w, manifest.String())
		return err
	}}); err != nil {
		return fmt.Errorf("store: save manifest: %w", err)
	}
	return nil
}

// SaveCorpus writes any Corpus to dir in Save's format: every file via
// temp-file plus rename, the manifest renamed last, then best-effort
// cleanup of files a previous save in dir wrote for documents that no
// longer exist.
func SaveCorpus(c Corpus, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	// Names of a previous save in this directory, for post-save cleanup of
	// files whose documents no longer exist (best-effort: a missing or
	// unreadable manifest just means nothing to clean).
	previous := map[string]bool{}
	if oldEntries, _, err := manifestEntries(dir); err == nil {
		for _, e := range oldEntries {
			previous[e.name] = true
		}
	}
	saved := map[string]bool{}
	if err := EmitSaveFiles(c, func(sf SaveFile) error {
		if err := writeFileAtomic(dir, sf.Name, func(f *os.File) error {
			return sf.WriteTo(f)
		}); err != nil {
			return err
		}
		if sf.Name != manifestName {
			saved[sf.Name] = true
		}
		return nil
	}); err != nil {
		return err
	}
	// The new manifest is in place; remove files of documents a previous
	// save wrote that no longer exist (e.g. deleted since), so the
	// directory holds exactly the saved corpus. Only names the old
	// manifest listed are touched — never arbitrary directory contents.
	for name := range previous {
		if !saved[name] && !strings.ContainsAny(name, "/\\") {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best-effort cleanup
		}
	}
	return nil
}

// writeFileAtomic writes a file via a uniquely named temp file in the same
// directory plus rename, so the final name only ever holds complete
// content. The temp file is removed on any failure.
func writeFileAtomic(dir, name string, write func(*os.File) error) error {
	f, err := os.CreateTemp(dir, "savetmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	// CreateTemp opens 0600; match the 0644-modulo-umask mode a plain
	// os.Create would have given, so another uid can still read a saved
	// corpus.
	if err := f.Chmod(0o644); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	return nil
}

// manifestEntry is one document line of a manifest: the name plus the saved
// document ID.
type manifestEntry struct {
	docID int32
	name  string
}

// Load reads a directory written by Save into a fresh store, indexing each
// document as it registers it and preserving shard count, document order
// and document IDs (and therefore Dewey IDs) —
// a corpus saved after replacements and deletions loads with the same gapped
// ID sequence it was saved with. A directory without a manifest Save wrote
// is an error that names it.
func Load(dir string) (*Store, error) {
	entries, shardCount, err := manifestEntries(dir)
	if err != nil {
		return nil, err
	}
	s := NewSharded(shardCount)
	var maxID int32
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.name))
		if err != nil {
			return nil, fmt.Errorf("store: load %s: %w", e.name, err)
		}
		doc, err := xmltree.ParseString(string(data), e.name, e.docID)
		if err != nil {
			return nil, fmt.Errorf("store: load %s: %w", e.name, err)
		}
		if err := s.RegisterParsed(doc); err != nil {
			return nil, fmt.Errorf("store: load %s: %w", e.name, err)
		}
		if e.docID > maxID {
			maxID = e.docID
		}
	}
	if next := maxID + 1; next > s.nextID.Load() {
		s.nextID.Store(next)
	}
	return s, nil
}

// manifestEntries reads dir's manifest; shardCount is the one its header
// records, or 0 (caller default) when the header names none.
func manifestEntries(dir string) ([]manifestEntry, int, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, 0, fmt.Errorf("store: load %s: %w", dir, err)
	}
	lines := strings.Split(string(data), "\n")
	if !strings.HasPrefix(lines[0], manifestHeader) {
		return nil, 0, fmt.Errorf("store: load %s: %s has no %s header", dir, manifestName, manifestHeader)
	}
	shardCount := 0
	for _, field := range strings.Fields(lines[0])[1:] {
		if n, ok := strings.CutPrefix(field, "shards="); ok {
			c, err := strconv.Atoi(n)
			if err != nil || c < 1 {
				return nil, 0, fmt.Errorf("store: load: bad manifest shard count %q", n)
			}
			shardCount = c
		}
	}
	var entries []manifestEntry
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		idText, name, ok := strings.Cut(line, ":")
		id, err := strconv.ParseInt(idText, 10, 32)
		if !ok || err != nil || id < 1 || name == "" {
			return nil, 0, fmt.Errorf("store: load: bad manifest line %q", line)
		}
		entries = append(entries, manifestEntry{docID: int32(id), name: name})
	}
	return entries, shardCount, nil
}
