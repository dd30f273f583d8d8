package diskstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/store"
	"vxml/internal/xmltree"
)

// partXML builds a small part document; variant v controls the content so
// v-equal parts are structurally identical (the dedup fodder).
func partXML(v int) string {
	return fmt.Sprintf(`<part><name>widget type %d</name><supplier><company>acme corp</company><rating>%d</rating></supplier><desc>reliable industrial widget for assembly line %d</desc></part>`,
		v, v%3, v)
}

// seedDocs is a deterministic mixed corpus: every doc with the same v%4
// shares its entire tree with its siblings.
func seedDocs(n int) map[string]string {
	docs := map[string]string{}
	for i := 0; i < n; i++ {
		docs[fmt.Sprintf("part-%02d.xml", i)] = partXML(i % 4)
	}
	docs["authors.xml"] = `<authors><author><name>ada lovelace</name><topic>analytical engines</topic></author><author><name>edgar codd</name><topic>relational model</topic></author></authors>`
	return docs
}

func buildHeap(t *testing.T, docs map[string]string) *store.Store {
	t.Helper()
	s := store.NewSharded(4)
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := s.AddXML(name, docs[name]); err != nil {
			t.Fatalf("AddXML(%s): %v", name, err)
		}
	}
	return s
}

func createDisk(t *testing.T, s *store.Store, opts Options) *Store {
	t.Helper()
	dir := t.TempDir()
	ds, err := Create(s, dir, opts, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { ds.Close() }) //nolint:errcheck
	return ds
}

func xmlOf(t *testing.T, n *xmltree.Node) string {
	t.Helper()
	var b strings.Builder
	if err := n.WriteXML(&b, ""); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	return b.String()
}

func TestCreateOpenRoundtrip(t *testing.T) {
	s := buildHeap(t, seedDocs(10))
	ds := createDisk(t, s, Options{})

	if got, want := ds.ShardCount(), s.ShardCount(); got != want {
		t.Fatalf("ShardCount = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(ds.Infos(), s.Infos()) {
		t.Fatalf("Infos mismatch:\n disk %v\n heap %v", ds.Infos(), s.Infos())
	}
	if got, want := ds.TotalBytes(), s.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	for _, info := range s.Infos() {
		hd, dd := s.Doc(info.Name), ds.Doc(info.Name)
		if dd == nil {
			t.Fatalf("disk Doc(%s) = nil", info.Name)
		}
		if dd.DocID != hd.DocID || dd.Name != hd.Name {
			t.Fatalf("Doc(%s) identity mismatch", info.Name)
		}
		if got, want := xmlOf(t, dd.Root), xmlOf(t, hd.Root); got != want {
			t.Fatalf("Doc(%s) XML mismatch:\n%s\n%s", info.Name, got, want)
		}
	}
	// The shard routing must agree document by document.
	for _, info := range s.Infos() {
		if ds.ShardOf(info.Name) != s.ShardOf(info.Name) {
			t.Fatalf("ShardOf(%s) disagrees", info.Name)
		}
	}
}

func TestStoredIndicesMatchFreshBuild(t *testing.T) {
	s := buildHeap(t, seedDocs(8))
	ds := createDisk(t, s, Options{IndexCacheSize: -1})
	for _, info := range s.Infos() {
		doc := s.Doc(info.Name)
		wantP, wantI := pathindex.Build(doc), invindex.Build(doc)
		gotP, gotI, err := ds.StoredIndices(info.Name)
		if err != nil {
			t.Fatalf("StoredIndices(%s): %v", info.Name, err)
		}
		if err := samePathLists(gotP, wantP); err != nil {
			t.Fatalf("path index of %s: %v", info.Name, err)
		}
		if gotI.Elements() != wantI.Elements() || gotI.Keywords() != wantI.Keywords() {
			t.Fatalf("index shape of %s differs", info.Name)
		}
		gl, wl := gotI.Lists(), wantI.Lists()
		if len(gl) != len(wl) {
			t.Fatalf("list count of %s differs", info.Name)
		}
		for i := range gl {
			if gl[i].Keyword != wl[i].Keyword || !reflect.DeepEqual(gl[i].Postings, wl[i].Postings) {
				t.Fatalf("posting list %q of %s differs", wl[i].Keyword, info.Name)
			}
		}
	}
}

func TestSubtreeDirectDecode(t *testing.T) {
	s := buildHeap(t, seedDocs(6))
	// Disable the document cache so every fetch exercises the DAG path.
	ds := createDisk(t, s, Options{DocCacheSize: -1})
	for _, doc := range s.Docs() {
		doc.Root.Walk(func(n *xmltree.Node) {
			got := ds.Subtree(n.ID)
			if got == nil {
				t.Fatalf("Subtree(%v) = nil", n.ID)
			}
			if got.Tag != n.Tag || got.Value != n.Value || got.ByteLen != n.ByteLen {
				t.Fatalf("Subtree(%v) = %s/%q/%d, want %s/%q/%d", n.ID, got.Tag, got.Value, got.ByteLen, n.Tag, n.Value, n.ByteLen)
			}
			if !dewey.Equal(got.ID, n.ID) {
				t.Fatalf("Subtree(%v) carries ID %v", n.ID, got.ID)
			}
			if xmlOf(t, got) != xmlOf(t, n) {
				t.Fatalf("Subtree(%v) XML differs", n.ID)
			}
		})
	}
	// Off-tree ordinals and unknown documents resolve to nil, as on heap.
	if ds.Subtree(dewey.ID{1, 99}) != nil || ds.Subtree(dewey.ID{99}) != nil || ds.Subtree(nil) != nil {
		t.Fatal("out-of-range Subtree should be nil")
	}
	// Counters count found fetches only, mirroring the heap backend.
	ds.ResetCounters()
	s.ResetCounters()
	for _, id := range []dewey.ID{{1}, {1, 2}, {1, 99}, {2, 1}} {
		ds.Subtree(id)
		s.Subtree(id)
	}
	if ds.SubtreeFetches() != s.SubtreeFetches() || ds.BytesFetched() != s.BytesFetched() {
		t.Fatalf("counters diverge: disk %d/%d heap %d/%d",
			ds.SubtreeFetches(), ds.BytesFetched(), s.SubtreeFetches(), s.BytesFetched())
	}
}

func TestDAGDedupCompression(t *testing.T) {
	// 40 documents, 4 distinct trees: the data log should hold roughly 4
	// documents' worth of structure.
	s := buildHeap(t, seedDocs(40))
	ds := createDisk(t, s, Options{})
	st := ds.DiskStats()
	if st.NodesShared == 0 {
		t.Fatal("expected shared nodes in a high-repetition corpus")
	}
	if st.DataBytes >= int64(st.TotalBytes)/2 {
		t.Fatalf("DataBytes = %d, want < half of TotalBytes %d", st.DataBytes, st.TotalBytes)
	}

	// Registering an exact duplicate of an existing tree appends no data
	// at all: every subtree record and the index record are shared.
	before := ds.dataLen.Load()
	doc, err := xmltree.ParseString(partXML(1), "dup.xml", ds.ReserveID())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.RegisterParsed(doc); err != nil {
		t.Fatal(err)
	}
	if after := ds.dataLen.Load(); after != before {
		t.Fatalf("duplicate registration grew data log by %d bytes", after-before)
	}
	if got := ds.Doc("dup.xml"); got == nil || xmlOf(t, got.Root) != xmlOf(t, doc.Root) {
		t.Fatal("duplicate doc does not round-trip")
	}
}

func TestMutationsAndTombstones(t *testing.T) {
	s := buildHeap(t, seedDocs(4))
	ds := createDisk(t, s, Options{})

	// Replace: fresh DocID, old ID resolvable only while pinned.
	old, _ := ds.Info("part-01.xml")
	doc, err := xmltree.ParseString(`<part><name>replacement</name></part>`, "part-01.xml", ds.ReserveID())
	if err != nil {
		t.Fatal(err)
	}
	ds.Pin()
	if err := ds.ReplaceParsed(doc); err != nil {
		t.Fatalf("ReplaceParsed: %v", err)
	}
	if n := ds.Subtree(dewey.ID{old.DocID, 1}); n == nil || n.Value != "widget type 1" {
		t.Fatalf("pinned reader lost the old subtree: %v", n)
	}
	if ds.Tombstones() != 1 {
		t.Fatalf("Tombstones = %d, want 1", ds.Tombstones())
	}
	ds.Unpin()
	if ds.Subtree(dewey.ID{old.DocID, 1}) != nil {
		t.Fatal("old subtree should be swept after Unpin")
	}
	if n := ds.Subtree(dewey.ID{doc.DocID, 1}); n == nil || n.Value != "replacement" {
		t.Fatal("replacement not resolvable")
	}
	if info, ok := ds.Info("part-01.xml"); !ok || info.DocID != doc.DocID {
		t.Fatal("Info not updated by replace")
	}

	// Delete.
	if err := ds.Delete("part-02.xml"); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Info("part-02.xml"); ok {
		t.Fatal("deleted doc still visible")
	}
	if err := ds.Delete("part-02.xml"); !errors.Is(err, store.ErrUnknownName) {
		t.Fatalf("double delete: %v", err)
	}
	if err := ds.ReplaceParsed(doc); err != nil {
		// replacing with a registered name is fine; this re-replace uses a
		// stale reserved ID, but the call path is what matters here
		t.Fatalf("ReplaceParsed again: %v", err)
	}
	dup, _ := xmltree.ParseString(`<x/>`, "part-03.xml", ds.ReserveID())
	if err := ds.RegisterParsed(dup); !errors.Is(err, store.ErrDuplicateName) {
		t.Fatalf("duplicate register: %v", err)
	}
	if got, want := ds.Mutations(), 3; got != want {
		t.Fatalf("Mutations = %d, want %d", got, want)
	}
}

func TestReopenAfterMutations(t *testing.T) {
	s := buildHeap(t, seedDocs(5))
	dir := t.TempDir()
	ds, err := Create(s, dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmltree.ParseString(`<part><name>late addition</name></part>`, "late.xml", ds.ReserveID())
	if err := ds.RegisterParsed(doc); err != nil {
		t.Fatal(err)
	}
	if err := ds.Delete("part-00.xml"); err != nil {
		t.Fatal(err)
	}
	repl, _ := xmltree.ParseString(`<part><name>v2</name></part>`, "part-01.xml", ds.ReserveID())
	if err := ds.ReplaceParsed(repl); err != nil {
		t.Fatal(err)
	}
	wantInfos := ds.Infos()
	wantNext := ds.NextDocID()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close() //nolint:errcheck
	if !reflect.DeepEqual(re.Infos(), wantInfos) {
		t.Fatalf("Infos after reopen:\n%v\nwant\n%v", re.Infos(), wantInfos)
	}
	if re.NextDocID() != wantNext {
		t.Fatalf("NextDocID after reopen = %d, want %d", re.NextDocID(), wantNext)
	}
	if re.Mutations() != 0 {
		t.Fatalf("Mutations after reopen = %d, want 0", re.Mutations())
	}
	if d := re.Doc("part-01.xml"); d == nil || xmlOf(t, d.Root) != xmlOf(t, repl.Root) {
		t.Fatal("replaced doc wrong after reopen")
	}
	if re.Doc("part-00.xml") != nil {
		t.Fatal("deleted doc visible after reopen")
	}
	// Mutating after reopen exercises the lazy dedup-table rebuild; an
	// exact duplicate of existing structure must still share everything.
	before := re.dataLen.Load()
	dup, _ := xmltree.ParseString(partXML(2), "dup.xml", re.ReserveID())
	if err := re.RegisterParsed(dup); err != nil {
		t.Fatal(err)
	}
	if after := re.dataLen.Load(); after != before {
		t.Fatalf("dedup table lost across reopen: +%d bytes", after-before)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("Open(empty) = %v, want ErrNoCorpus", err)
	}
}

func TestInitEmptyAndGrow(t *testing.T) {
	dir := t.TempDir()
	ds, err := Init(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Infos()) != 0 {
		t.Fatal("fresh corpus not empty")
	}
	doc, _ := xmltree.ParseString(`<a><b>hello world</b></a>`, "a.xml", ds.ReserveID())
	if err := ds.RegisterParsed(doc); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	if v, ok := re.Value(dewey.ID{doc.DocID, 1}); !ok || v != "hello world" {
		t.Fatalf("Value = %q/%v", v, ok)
	}
	if _, err := Init(dir, 4, Options{}); err == nil {
		t.Fatal("Init over existing corpus should fail")
	}
}

func TestBlockCacheServesRepeatReads(t *testing.T) {
	s := buildHeap(t, seedDocs(8))
	ds := createDisk(t, s, Options{DocCacheSize: -1, IndexCacheSize: -1, BlockSize: 512})
	for i := 0; i < 3; i++ {
		for _, info := range s.Infos() {
			if ds.Doc(info.Name) == nil {
				t.Fatal("hydrate failed")
			}
		}
	}
	st := ds.DiskStats()
	if st.BlockCache.Hits == 0 {
		t.Fatalf("no block cache hits: %+v", st.BlockCache)
	}
	if st.BlockCache.Bytes > st.BlockCache.Capacity {
		t.Fatalf("block cache over capacity: %+v", st.BlockCache)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	s := buildHeap(t, seedDocs(12))
	// A tiny cache (two 512-byte blocks) must still serve everything.
	ds := createDisk(t, s, Options{DocCacheSize: -1, CacheBytes: 1024, BlockSize: 512})
	for _, info := range s.Infos() {
		hd, dd := s.Doc(info.Name), ds.Doc(info.Name)
		if dd == nil || xmlOf(t, dd.Root) != xmlOf(t, hd.Root) {
			t.Fatalf("doc %s wrong under eviction pressure", info.Name)
		}
	}
	st := ds.DiskStats()
	if st.BlockCache.Bytes > 1024 {
		t.Fatalf("cache exceeded bound: %d bytes", st.BlockCache.Bytes)
	}
}

func TestSnapshotFilesRestore(t *testing.T) {
	s := buildHeap(t, seedDocs(6))
	ds := createDisk(t, s, Options{})
	dst := t.TempDir()
	err := ds.SnapshotFiles(func(name string, data []byte) error {
		return os.WriteFile(filepath.Join(dst, name), data, 0o644)
	})
	if err != nil {
		t.Fatalf("SnapshotFiles: %v", err)
	}
	re, err := Open(dst)
	if err != nil {
		t.Fatalf("open shipped snapshot: %v", err)
	}
	defer re.Close() //nolint:errcheck
	if !reflect.DeepEqual(re.Infos(), ds.Infos()) {
		t.Fatal("shipped snapshot differs")
	}
}

// TestCrashSafetyProperty is the fault-injection property suite: a corpus
// writer killed at a randomized byte offset — during a full save or during
// any incremental mutation — must leave a directory that opens as the
// corpus either before or after the interrupted operation, never half.
func TestCrashSafetyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	base := buildHeap(t, seedDocs(6))

	// Phase 1: full save torn at increasing budgets.
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		fault := &faultPlan{}
		fault.arm(int64(rng.Intn(40_000)))
		_, err := Create(base, dir, Options{fault: fault}, nil)
		fault.arm(-1)
		if err == nil {
			// Budget exceeded the save size: a complete corpus.
			verifyOpens(t, dir, len(base.Infos()))
			continue
		}
		// Torn: either no corpus at all (manifest never landed) or — had a
		// manifest existed before — the old corpus. Here: no corpus.
		if _, operr := Open(dir); !errors.Is(operr, ErrNoCorpus) {
			t.Fatalf("trial %d: torn create left %v, want ErrNoCorpus", trial, operr)
		}
	}

	// Phase 2: a live store's mutations torn at random budgets. After each
	// tear the directory must reopen as exactly the committed prefix.
	dir := t.TempDir()
	fault := &faultPlan{}
	ds, err := Create(base, dir, Options{fault: fault}, nil)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]string{}
	for _, d := range base.Docs() {
		committed[d.Name] = xmlOf(t, d.Root)
	}
	names := sortedNames(committed)
	for trial := 0; trial < 60; trial++ {
		op := rng.Intn(3)
		budget := int64(rng.Intn(3_000))
		fault.arm(budget)
		var name string
		var xml string
		var opErr error
		switch op {
		case 0: // add
			name = fmt.Sprintf("new-%03d.xml", trial)
			xml = partXML(rng.Intn(9))
			doc, _ := xmltree.ParseString(xml, name, ds.ReserveID())
			opErr = ds.RegisterParsed(doc)
		case 1: // replace
			name = names[rng.Intn(len(names))]
			xml = fmt.Sprintf(`<part><rev>%d</rev></part>`, trial)
			doc, _ := xmltree.ParseString(xml, name, ds.ReserveID())
			opErr = ds.ReplaceParsed(doc)
		default: // delete
			name = names[rng.Intn(len(names))]
			opErr = ds.Delete(name)
		}
		fault.arm(-1)
		if opErr == nil {
			switch op {
			case 0, 1:
				committed[name] = xml
			default:
				delete(committed, name)
			}
			names = sortedNames(committed)
			if len(names) == 0 {
				t.Fatal("test consumed every document")
			}
			continue
		}
		if !errors.Is(opErr, errInjectedFault) {
			t.Fatalf("trial %d: unexpected failure %v", trial, opErr)
		}
		// Simulated crash: abandon the wounded store, reopen from disk.
		ds.Close() //nolint:errcheck
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("trial %d: reopen after torn write: %v", trial, err)
		}
		verifyContents(t, re, committed)
		ds = re
	}
	ds.Close() //nolint:errcheck

	// Final reopen sanity.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck
	verifyContents(t, re, committed)
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func verifyOpens(t *testing.T, dir string, wantDocs int) {
	t.Helper()
	ds, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer ds.Close() //nolint:errcheck
	if got := len(ds.Infos()); got != wantDocs {
		t.Fatalf("opened with %d docs, want %d", got, wantDocs)
	}
}

func verifyContents(t *testing.T, ds *Store, want map[string]string) {
	t.Helper()
	infos := ds.Infos()
	if len(infos) != len(want) {
		t.Fatalf("corpus holds %d docs, want %d", len(infos), len(want))
	}
	for name, xml := range want {
		d := ds.Doc(name)
		if d == nil {
			t.Fatalf("doc %s missing", name)
		}
		if got := xmlOf(t, d.Root); got != xml {
			t.Fatalf("doc %s content:\n%s\nwant\n%s", name, got, xml)
		}
	}
}

// TestManifestTornTailIgnored corrupts the manifest tail directly and
// asserts the loader folds only the valid prefix.
func TestManifestTornTailIgnored(t *testing.T) {
	s := buildHeap(t, seedDocs(4))
	dir := t.TempDir()
	ds, err := Create(s, dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantInfos := ds.Infos()
	ds.Close() //nolint:errcheck

	mpath := filepath.Join(dir, ManifestFileName)
	for _, garbage := range [][]byte{
		{0x17},                         // lone partial length
		{0xff, 0xff, 0xff, 0x7f, 1, 2}, // huge claimed length
		{4, 0, 0, 0, 9, 9, 9, 9, 'a', 'b', 'c', 'd'}, // bad CRC
	} {
		mdata, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpath, append(append([]byte{}, mdata...), garbage...), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir)
		if err != nil {
			t.Fatalf("open with torn tail %v: %v", garbage, err)
		}
		if !reflect.DeepEqual(re.Infos(), wantInfos) {
			t.Fatalf("torn tail changed corpus")
		}
		re.Close() //nolint:errcheck
	}
}

// TestCorruptDataRecords verifies typed, non-panicking errors when node
// records are damaged in place.
func TestCorruptDataRecords(t *testing.T) {
	s := buildHeap(t, seedDocs(3))
	dir := t.TempDir()
	ds, err := Create(s, dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataName := ds.dataName
	ds.Close() //nolint:errcheck

	dpath := filepath.Join(dir, dataName)
	raw, err := os.ReadFile(dpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the record region.
	raw[len(dataMagic)+len(raw)/3] ^= 0x55
	if err := os.WriteFile(dpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		// Open itself may detect the damage via header checks — fine.
		return
	}
	defer re.Close() //nolint:errcheck
	// Hydrating across the corpus must never panic; failures surface as
	// nil docs with a recorded typed error.
	for _, info := range re.Infos() {
		re.Doc(info.Name)
		re.Subtree(dewey.ID{info.DocID, 1})
	}
	if errp := re.lastDecodeErr.Load(); errp != nil && !errors.Is(*errp, ErrCorrupt) {
		t.Fatalf("decode error not typed: %v", *errp)
	}
}
