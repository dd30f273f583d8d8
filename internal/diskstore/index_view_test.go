package diskstore

// Both indices of a disk-resident document are views over its stored
// record: a sorted path directory and a sorted keyword directory, and one
// list decoded per lookup. These tests pin that the views answer exactly as
// pathindex.Build's and invindex.Build's resident indices do, that damage
// surfaces as ErrCorrupt, and what a miss and a lookup allocate.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/dewey"
	"vxml/internal/gtp"
	"vxml/internal/inex"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pred"
	"vxml/internal/store"
	"vxml/internal/xmltree"
)

// servedFrequent and servedTail are the body vocabulary of servedXML: ten frequent words (a
// quarter of all body words, so most articles hold each) and a wide tail.
var servedFrequent = []string{"copper", "quartz", "basalt", "granite", "mica", "shale", "survey", "archive", "ledger", "gneiss"}

var servedTail = func() []string {
	var words []string
	for _, root := range []string{"system", "data", "model", "network", "algorithm", "query", "index", "process", "result", "method",
		"value", "structure", "node", "graph", "path", "tree", "cache", "logic", "signal", "design", "theory", "analysis",
		"storage", "protocol", "circuit", "filter", "kernel", "vector", "matrix", "layer", "agent", "schema", "stream", "buffer"} {
		for _, suffix := range []string{"", "s", "ing", "ed", "al", "ic", "ion", "er"} {
			words = append(words, root+suffix)
		}
	}
	return words
}()

// servedXML builds a document of the shape the disk_served and
// collection_fanout benchmark workloads serve: a books root holding
// articles, each a small front matter and a body of minWords..minWords+59
// words. The front matter depends on seed alone, so two calls that differ
// only in minWords have identical path-index shapes.
func servedXML(seed int64, articles, minWords int) string {
	fm, body := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed+1))
	var b strings.Builder
	b.WriteString("<books>")
	for a := 0; a < articles; a++ {
		fmt.Fprintf(&b, "<article><fm><tl>study %d of part %d</tl><au>author%d</au><yr>%d</yr></fm><bdy>",
			a, seed, fm.Intn(8), 1985+fm.Intn(16))
		for w, n := 0, minWords+body.Intn(60); w < n; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			if body.Intn(4) == 0 {
				b.WriteString(servedFrequent[body.Intn(len(servedFrequent))])
			} else {
				b.WriteString(servedTail[body.Intn(len(servedTail))])
			}
		}
		b.WriteString("</bdy></article>")
	}
	b.WriteString("</books>")
	return b.String()
}

// servedDoc is the document the microbenchmarks and allocation pins use:
// by default 38 articles of 45..104 body words, as disk_served generates
// them.
func servedDoc(tb testing.TB, name string, docID int32, articles, minWords int) *xmltree.Document {
	tb.Helper()
	doc, err := xmltree.ParseString(servedXML(7, articles, minWords), name, docID)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// uncachedStore persists docs into a fresh disk store with the index
// cache disabled, so every StoredIndices call is a miss.
func uncachedStore(tb testing.TB, docs ...*xmltree.Document) *Store {
	tb.Helper()
	ds, err := Init(tb.TempDir(), 2, Options{IndexCacheSize: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.Close() }) //nolint:errcheck
	for _, doc := range docs {
		if err := ds.RegisterParsed(doc); err != nil {
			tb.Fatal(err)
		}
	}
	return ds
}

// absentKeywords returns n strings the index does not hold: the empty
// string, one before the first and one after the last directory keyword,
// proper prefixes and extensions of real ones, and random words.
func absentKeywords(r *rand.Rand, lists []*invindex.PostingList, n int) []string {
	present := map[string]bool{}
	for _, pl := range lists {
		present[pl.Keyword] = true
	}
	out := []string{"", "\x01"}
	if len(lists) > 0 {
		out = append(out, lists[len(lists)-1].Keyword+"z", lists[0].Keyword[:len(lists[0].Keyword)-1])
	}
	for len(out) < n {
		var cand string
		switch {
		case len(lists) > 0 && r.Intn(3) == 0:
			kw := lists[r.Intn(len(lists))].Keyword
			cand = kw[:r.Intn(len(kw))]
		case len(lists) > 0 && r.Intn(2) == 0:
			cand = lists[r.Intn(len(lists))].Keyword + string(rune('a'+r.Intn(26)))
		default:
			cand = fmt.Sprintf("w%x", r.Int63())
		}
		out = append(out, cand)
	}
	kept := out[:0]
	for _, kw := range out {
		if !present[kw] {
			kept = append(kept, kw)
		}
	}
	return kept
}

// oracleDocs are the documents the views are checked against Build on:
// INEX-shaped ones, disk_served- and collection_fanout-shaped ones, a
// single element, and one with almost no words.
func oracleDocs(t *testing.T) map[string]*xmltree.Document {
	t.Helper()
	corpus := inex.Generate(inex.Options{TargetBytes: 24 << 10, Seed: 5})
	docs := map[string]*xmltree.Document{"inex": corpus.INEX, "authors": corpus.Authors}
	for _, doc := range docs {
		doc.DocID = 12
		doc.Finalize()
	}
	for name, xml := range map[string]string{
		"served":      servedXML(3, 38, 45),
		"fanout":      servedXML(4, 6, 45),
		"one-element": `<lonely/>`,
		"wordless":    `<r><v>` + strings.Repeat("-- .. ", 100) + `</v><w>alpha beta alpha</w></r>`,
	} {
		doc, err := xmltree.ParseString(xml, name+".xml", 11)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = doc
	}
	return docs
}

// samePathLists reports how got's path directory or lists differ from
// want's, if they do: every path, value and posting, in order.
func samePathLists(got, want *pathindex.Index) error {
	if !reflect.DeepEqual(got.Paths(), want.Paths()) {
		return fmt.Errorf("directory %v, want %v", got.Paths(), want.Paths())
	}
	gl, wl := got.Lists(), want.Lists()
	for slot, path := range want.Paths() {
		if gl.Values(slot) != wl.Values(slot) {
			return fmt.Errorf("%s has %d values, want %d", path, gl.Values(slot), wl.Values(slot))
		}
		for k := range wl.Values(slot) {
			if gl.Value(slot, k) != wl.Value(slot, k) {
				return fmt.Errorf("%s value %d is %q, want %q", path, k, gl.Value(slot, k), wl.Value(slot, k))
			}
		}
		if !reflect.DeepEqual(gl.Postings(slot, nil, nil), wl.Postings(slot, nil, nil)) {
			return fmt.Errorf("%s list differs", path)
		}
	}
	return nil
}

// TestIndexViewMatchesBuild: for every directory keyword the list decoded
// from the record equals Build's posting for posting, range sums and
// containment agree on every element ID and on IDs that name no element,
// and absent keywords answer empty.
func TestIndexViewMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for name, doc := range oracleDocs(t) {
		want := invindex.Build(doc)
		var noted error
		_, got, _, err := decodeIndexPayload(encodeIndexPayload(pathindex.Build(doc), want), doc.DocID, func(err error) { noted = err }, new(viewCounters))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Elements() != want.Elements() || got.Keywords() != want.Keywords() {
			t.Fatalf("%s: view has %d elements / %d keywords, Build %d / %d", name, got.Elements(), got.Keywords(), want.Elements(), want.Keywords())
		}
		var ids []dewey.ID
		doc.Root.Walk(func(n *xmltree.Node) { ids = append(ids, n.ID) })
		for i := 0; i < 40; i++ {
			id := ids[r.Intn(len(ids))].Child(int32(50 + r.Intn(50)))
			ids = append(ids, id, dewey.ID{doc.DocID + 1, int32(r.Intn(3))})
		}
		ids = append(ids, dewey.ID{}, dewey.ID{doc.DocID - 1})
		lists := want.Lists()
		for _, wl := range lists {
			gl := got.Lookup(wl.Keyword)
			if gl.Keyword != wl.Keyword || !reflect.DeepEqual(gl.Postings, wl.Postings) || gl.TotalTF() != wl.TotalTF() {
				t.Fatalf("%s: list %q decodes differently from Build's", name, wl.Keyword)
			}
			for _, id := range ids {
				if gl.SubtreeTF(id) != wl.SubtreeTF(id) {
					t.Fatalf("%s: %q range probe at %v differs from Build's", name, wl.Keyword, id)
				}
			}
		}
		for _, kw := range absentKeywords(r, lists, 50) {
			gl := got.Lookup(kw)
			if gl.Len() != 0 || gl.TotalTF() != 0 || gl.SubtreeTF(doc.Root.ID) != 0 {
				t.Fatalf("%s: absent keyword %q answers %+v", name, kw, gl)
			}
		}
		if noted != nil {
			t.Fatalf("%s: a valid record noted %v", name, noted)
		}
	}
}

// TestPathViewMatchesBuild: the path index a record opens answers every
// lookup exactly as pathindex.Build's resident index does — the same full
// paths, segments and postings in the same order, for every pattern ×
// predicate set of TestLookupPathEqualsScanCopySort plus equalities on
// values the document holds — and counts the same probes; it agrees with
// Build on the directory, MatchFullPaths, DistinctRowCount and TagPostings.
func TestPathViewMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for name, doc := range oracleDocs(t) {
		want := pathindex.Build(doc)
		var noted error
		got, _, _, err := decodeIndexPayload(encodeIndexPayload(want, invindex.Build(doc)), doc.DocID, func(err error) { noted = err }, new(viewCounters))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := samePathLists(got, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.DistinctRowCount() != want.DistinctRowCount() {
			t.Fatalf("%s: %d rows, Build %d", name, got.DistinctRowCount(), want.DistinctRowCount())
		}
		predSets := [][]pred.Predicate{
			nil,
			{{Op: pred.Eq, Lit: "x"}},
			{{Op: pred.Eq, Lit: "7"}},
			{{Op: pred.Eq, Lit: "07"}},
			{{Op: pred.Eq, Lit: "7.00"}},
			{{Op: pred.Eq, Lit: "1990"}},
			{{Op: pred.Eq, Lit: "1990.0"}},
			{{Op: pred.Gt, Lit: "5"}},
			{{Op: pred.Lt, Lit: "x"}},
			{{Op: pred.Gt, Lit: "3"}, {Op: pred.Lt, Lit: "12"}},
			{{Op: pred.Eq, Lit: "7"}, {Op: pred.Gt, Lit: "1"}},
		}
		tags := map[string]bool{}
		var patterns [][]pathindex.Step
		var leafValues []string
		doc.Root.Walk(func(n *xmltree.Node) {
			tags[n.Tag] = true
			if n.IsLeaf() {
				leafValues = append(leafValues, n.Value)
			}
		})
		for i := 0; i < 3 && len(leafValues) > 0; i++ {
			predSets = append(predSets, []pred.Predicate{{Op: pred.Eq, Lit: leafValues[r.Intn(len(leafValues))]}})
		}
		for _, path := range want.Paths() {
			var steps []pathindex.Step
			for _, tag := range strings.Split(path[1:], "/") {
				steps = append(steps, pathindex.Step{Axis: pathindex.Child, Tag: tag})
			}
			patterns = append(patterns, steps)
		}
		for tag := range tags {
			patterns = append(patterns,
				[]pathindex.Step{{Axis: pathindex.Descendant, Tag: tag}},
				[]pathindex.Step{{Axis: pathindex.Child, Tag: doc.Root.Tag}, {Axis: pathindex.Descendant, Tag: tag}})
		}
		for _, pattern := range patterns {
			if g, w := got.MatchFullPaths(pattern), want.MatchFullPaths(pattern); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: MatchFullPaths(%s) = %v, Build %v", name, pathindex.FormatSteps(pattern), g, w)
			}
			for _, preds := range predSets {
				gp, wp := got.Probes(), want.Probes()
				g, w := got.LookupPath(pattern, preds), want.LookupPath(pattern, preds)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: LookupPath(%s, %v)\n got %+v\nwant %+v", name, pathindex.FormatSteps(pattern), preds, g, w)
				}
				if gp, wp = got.Probes()-gp, want.Probes()-wp; gp != wp {
					t.Fatalf("%s: LookupPath(%s, %v) counted %d probes, Build %d", name, pathindex.FormatSteps(pattern), preds, gp, wp)
				}
			}
		}
		for tag := range tags {
			if g, w := got.TagPostings(tag), want.TagPostings(tag); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: TagPostings(%s) differs from Build's", name, tag)
			}
		}
		if got.TagPostings("nope") != nil {
			t.Fatalf("%s: an absent tag has postings", name)
		}
		if noted != nil {
			t.Fatalf("%s: a valid record noted %v", name, noted)
		}
	}
}

// TestIdenticalDocumentsShareOneIndexRecord: two documents with the same
// content store one index record and each decodes it under its own ID.
func TestIdenticalDocumentsShareOneIndexRecord(t *testing.T) {
	xml := servedXML(9, 5, 45)
	a, err := xmltree.ParseString(xml, "a.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := xmltree.ParseString(xml, "b.xml", 2)
	if err != nil {
		t.Fatal(err)
	}
	ds := uncachedStore(t, a, b)
	if ea, eb := entryNamed(ds, "a.xml"), entryNamed(ds, "b.xml"); ea.index != eb.index {
		t.Fatalf("identical documents store two index records: %+v and %+v", ea.index, eb.index)
	}
	for _, doc := range []*xmltree.Document{a, b} {
		_, got, err := ds.StoredIndices(doc.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range invindex.Build(doc).Lists() {
			if gl := got.Lookup(wl.Keyword); !reflect.DeepEqual(gl.Postings, wl.Postings) {
				t.Fatalf("%s: list %q not decoded under document ID %d", doc.Name, wl.Keyword, doc.DocID)
			}
		}
	}
}

// TestFlippedIndexRecordByteIsRejected: whichever byte of a stored index
// record changes — frame header, checksum, either half — StoredIndices
// refuses the record as corrupt.
func TestFlippedIndexRecordByteIsRejected(t *testing.T) {
	doc, err := xmltree.ParseString(servedXML(2, 2, 8), "d.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds := uncachedStore(t, doc)
	if _, _, err := ds.StoredIndices("d.xml"); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(ds.dir, ds.dataName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	at := entryNamed(ds, "d.xml").index
	frame := make([]byte, at.n)
	if _, err := f.ReadAt(frame, at.off); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		for _, mask := range []byte{0x01, 0x80} {
			if _, err := f.WriteAt([]byte{frame[i] ^ mask}, at.off+int64(i)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ds.StoredIndices("d.xml"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d of %d ^ %#x: StoredIndices = %v, want ErrCorrupt", i, len(frame), mask, err)
			}
		}
		if _, err := f.WriteAt(frame[i:i+1], at.off+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ds.StoredIndices("d.xml"); err != nil {
		t.Fatalf("restored record: %v", err)
	}
}

// TestCorruptIndexFailsEverySearch: when one candidate's stored index record
// fails its checksum, the Efficient engine and the GTP comparator both fail
// the search with ErrCorrupt; neither answers from the other candidates.
func TestCorruptIndexFailsEverySearch(t *testing.T) {
	ds, err := Init(t.TempDir(), 2, Options{IndexCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close() //nolint:errcheck
	for i, name := range []string{"a.xml", "b.xml"} {
		doc, err := xmltree.ParseString(servedXML(int64(i+1), 4, 8), name, ds.ReserveID())
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.RegisterParsed(doc); err != nil {
			t.Fatal(err)
		}
	}
	e := core.New(ds)
	v, err := e.CompileView(`for $x in fn:collection("*.xml")/books//article return $x`)
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"study"}
	if res, _, err := e.Search(v, kws, core.Options{}); err != nil || len(res) != 8 {
		t.Fatalf("intact corpus: %d results, %v; want 8", len(res), err)
	}
	f, err := os.OpenFile(filepath.Join(ds.dir, ds.dataName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	at := entryNamed(ds, "b.xml").index
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, at.off+int64(at.n)-1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{last[0] ^ 0x01}, at.off+int64(at.n)-1); err != nil {
		t.Fatal(err)
	}
	if res, _, err := e.Search(v, kws, core.Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Efficient: %d results, error %v; want ErrCorrupt", len(res), err)
	}
	if res, _, err := gtp.Search(e, v, kws, core.Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GTP: %d results, error %v; want ErrCorrupt", len(res), err)
	}
}

// TestCorruptListAnswersEmpty: a list that stops parsing after the record
// was opened is noted and answers empty, as Subtree answers nil.
func TestCorruptListAnswersEmpty(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b>hello world</b><c>hello again</c></a>`, "d.xml", 3)
	if err != nil {
		t.Fatal(err)
	}
	var noted error
	s, err := openIndexRecord(encodeIndexPayload(pathindex.Build(doc), invindex.Build(doc)), 3, func(err error) { noted = err })
	if err != nil {
		t.Fatal(err)
	}
	_, iix := s.indices(new(viewCounters))
	// The last list is the last bytes the record keeps; the view reads them
	// at lookup time, so damage done now is damage after the checksum passed.
	s.lists[len(s.lists)-1] = 0xff
	lists := invindex.Build(doc).Lists()
	if pl := iix.Lookup(lists[len(lists)-1].Keyword); pl.Len() != 0 || pl.SubtreeTF(dewey.ID{3}) != 0 {
		t.Fatalf("damaged list answered %+v", pl)
	}
	if !errors.Is(noted, ErrCorrupt) {
		t.Fatalf("damaged list noted %v, want ErrCorrupt", noted)
	}
}

// TestCorruptPathListAnswersEmpty: a path list that stops parsing after
// the record was opened — a varint that runs off its end, a value ordinal
// past the path's values — is noted and answers empty, with or without
// predicates, and the other paths still answer.
func TestCorruptPathListAnswersEmpty(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b>hello world</b><c>hello again</c></a>`, "d.xml", 3)
	if err != nil {
		t.Fatal(err)
	}
	var noted error
	s, err := openIndexRecord(encodeIndexPayload(pathindex.Build(doc), invindex.Build(doc)), 3, func(err error) { noted = err })
	if err != nil {
		t.Fatal(err)
	}
	pix, _ := s.indices(new(viewCounters))
	if got := pix.Paths(); !reflect.DeepEqual(got, []string{"/a", "/a/b", "/a/c"}) {
		t.Fatalf("paths %v", got)
	}
	ac := []pathindex.Step{{Axis: pathindex.Child, Tag: "a"}, {Axis: pathindex.Child, Tag: "c"}}
	ab := []pathindex.Step{{Axis: pathindex.Child, Tag: "a"}, {Axis: pathindex.Child, Tag: "b"}}
	// The last byte of /a/c's list is its one posting's value ordinal.
	last := s.listEnds[3] - 1
	for _, damage := range []byte{0xff, 2} {
		s.lists[last] = damage
		for _, preds := range [][]pred.Predicate{nil, {{Op: pred.Eq, Lit: "hello again"}}, {{Op: pred.Gt, Lit: "a"}}} {
			noted = nil
			if got := pix.LookupPath(ac, preds); got != nil {
				t.Fatalf("damage %#x, %v: the damaged list answered %+v", damage, preds, got)
			}
			if !errors.Is(noted, ErrCorrupt) {
				t.Fatalf("damage %#x, %v: noted %v, want ErrCorrupt", damage, preds, noted)
			}
		}
		if got := pix.LookupPath(ab, nil); len(got) != 1 || got[0].Postings[0].Value != "hello world" {
			t.Fatalf("damage %#x: an intact path answered %+v", damage, got)
		}
	}
}

// TestOlderFormatIsRefused: a vxdata2 directory is refused with a typed
// error naming the version, and left exactly as found.
func TestOlderFormatIsRefused(t *testing.T) {
	dir := t.TempDir()
	ds, err := Create(buildHeap(t, seedDocs(3)), dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dpath := filepath.Join(dir, ds.dataName)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dpath)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, "vxdata2\n")
	if err := os.WriteFile(dpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrFormatVersion) || !strings.Contains(err.Error(), "vxdata2") {
		t.Fatalf("Open = %v, want ErrFormatVersion naming vxdata2", err)
	}
	if after, _ := os.ReadFile(dpath); !reflect.DeepEqual(after, raw) {
		t.Fatal("refusing the directory changed its data log")
	}
	if after, _ := os.ReadFile(filepath.Join(dir, ManifestFileName)); !reflect.DeepEqual(after, manifest) {
		t.Fatal("refusing the directory changed its manifest")
	}
}

// TestIndexCacheReportsResidentBytes: DiskStats shows what the cached
// indices keep resident — their records' text and lists plus the
// directories, so a little more than the records — and lets go of it.
func TestIndexCacheReportsResidentBytes(t *testing.T) {
	s := store.NewSharded(2)
	var recordBytes int64
	for i := 0; i < 3; i++ {
		if _, err := s.AddXML(fmt.Sprintf("d%d.xml", i), servedXML(int64(i), 6, 45)); err != nil {
			t.Fatal(err)
		}
	}
	ds := createDisk(t, s, Options{})
	if st := ds.DiskStats().IndexCache; st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cold index cache reports %+v", st)
	}
	for _, info := range ds.Infos() {
		if _, _, err := ds.StoredIndices(info.Name); err != nil {
			t.Fatal(err)
		}
		recordBytes += int64(entryNamed(ds, info.Name).index.n)
	}
	st := ds.DiskStats().IndexCache
	if st.Entries != 3 || st.Bytes <= recordBytes || 4*st.Bytes > 5*recordBytes {
		t.Fatalf("index cache reports %+v for %d record bytes", st, recordBytes)
	}
	if err := ds.Delete("d1.xml"); err != nil {
		t.Fatal(err)
	}
	if after := ds.DiskStats().IndexCache; after.Entries != 2 || after.Bytes >= st.Bytes {
		t.Fatalf("after a delete the index cache reports %+v, before %+v", after, st)
	}
}

// TestViewAllocations pins what the views cost in objects: a miss
// allocates the same number whatever the record's lists hold — for a
// document with three times the words per article (inverted postings) and
// for one with half as many articles again (path postings, values and
// keywords) — a keyword lookup that hits at most four (the list, its
// postings, their IDs, the prefix sums), an absent keyword at most one, and
// a path lookup without predicates at most three (the result, the postings,
// their IDs): none per value.
func TestViewAllocations(t *testing.T) {
	small, large, wide := servedDoc(t, "small.xml", 1, 38, 45), servedDoc(t, "large.xml", 2, 38, 150), servedDoc(t, "wide.xml", 3, 60, 45)
	ds := uncachedStore(t, small, large, wide)
	miss := func(name string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := ds.StoredIndices(name); err != nil {
				t.Fatal(err)
			}
		})
	}
	postings := func(doc *xmltree.Document) (n int) {
		for _, pl := range invindex.Build(doc).Lists() {
			n += pl.Len()
		}
		return n
	}
	pathPostings := func(doc *xmltree.Document) (n int) {
		pix := pathindex.Build(doc)
		for slot := range pix.Paths() {
			n += len(pix.Lists().Postings(slot, nil, nil))
		}
		return n
	}
	if ps, pl := postings(small), postings(large); pl < ps*3/2 {
		t.Fatalf("the large document has %d postings to the small one's %d: not a test of independence", pl, ps)
	}
	if ps, pw := pathPostings(small), pathPostings(wide); pw < ps*3/2 {
		t.Fatalf("the wide document has %d path postings to the small one's %d: not a test of independence", pw, ps)
	}
	// A miss interns the record's paths (intern.String, weak interning
	// through unique.Make): a canonical path no live index holds is dropped
	// at a collection, and the next miss allocates it again. With the
	// collector free to run mid-measurement the count depended on when it
	// ran (27 vs 28 under load or the race detector); without it, every
	// miss finds the warm-up run's canonical copies.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ms := miss("small.xml")
	for _, name := range []string{"large.xml", "wide.xml"} {
		if m := miss(name); m != ms {
			t.Errorf("a miss allocates %.0f objects over the small document, %.0f over %s", ms, m, name)
		}
	}
	pix, iix, err := ds.StoredIndices("large.xml")
	if err != nil {
		t.Fatal(err)
	}
	var sink *invindex.PostingList
	if hit := testing.AllocsPerRun(100, func() { sink = iix.Lookup("copper") }); hit > 4 || sink.Len() == 0 {
		t.Errorf("a lookup that hits allocates %.0f objects for %d postings, want <= 4", hit, sink.Len())
	}
	if absent := testing.AllocsPerRun(100, func() { sink = iix.Lookup("nosuchword") }); absent > 1 || sink.Len() != 0 {
		t.Errorf("an absent keyword allocates %.0f objects, want <= 1", absent)
	}
	var res []pathindex.PathPostings
	if hit := testing.AllocsPerRun(100, func() { res = pix.LookupPath(bdySteps, nil) }); hit > 3 || len(res) != 1 || len(res[0].Postings) != 38 || !res[0].Postings[0].HasValue {
		t.Errorf("a path lookup that hits allocates %.0f objects for %+v, want <= 3", hit, res)
	}
}

// bdySteps and yrSteps are the patterns of the disk_served view's body and
// year probes.
var (
	bdySteps = []pathindex.Step{{Axis: pathindex.Child, Tag: "books"}, {Axis: pathindex.Descendant, Tag: "article"}, {Axis: pathindex.Child, Tag: "bdy"}}
	yrSteps  = []pathindex.Step{{Axis: pathindex.Child, Tag: "books"}, {Axis: pathindex.Descendant, Tag: "article"}, {Axis: pathindex.Child, Tag: "fm"}, {Axis: pathindex.Child, Tag: "yr"}}
	auSteps  = []pathindex.Step{{Axis: pathindex.Child, Tag: "books"}, {Axis: pathindex.Descendant, Tag: "article"}, {Axis: pathindex.Child, Tag: "fm"}, {Axis: pathindex.Child, Tag: "au"}}
)

// BenchmarkStoredIndicesMiss opens the stored indices of one
// disk_served-shaped document with the index cache disabled: the pread,
// the checksum, the path half and the keyword directory.
func BenchmarkStoredIndicesMiss(b *testing.B) {
	ds := uncachedStore(b, servedDoc(b, "served.xml", 1, 38, 45))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.StoredIndices("served.xml"); err != nil {
			b.Fatal(err)
		}
	}
}

var lookupSink *invindex.PostingList

// BenchmarkLazyLookup decodes one posting list from the record per lookup:
// a word most articles hold, one few do, and one the document lacks.
func BenchmarkLazyLookup(b *testing.B) {
	doc := servedDoc(b, "served.xml", 1, 38, 45)
	_, iix, err := uncachedStore(b, doc).StoredIndices("served.xml")
	if err != nil {
		b.Fatal(err)
	}
	rare := ""
	for _, pl := range invindex.Build(doc).Lists() {
		if pl.Len() == 3 {
			rare = pl.Keyword
		}
	}
	for _, c := range []struct{ name, keyword string }{{"frequent", "copper"}, {"infrequent", rare}, {"absent", "nosuchword"}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lookupSink = iix.Lookup(c.keyword)
			}
			b.ReportMetric(float64(lookupSink.Len()), "postings")
		})
	}
}

var pathSink []pathindex.PathPostings

// BenchmarkLazyPathLookup decodes one path list from the record per lookup,
// as the disk_served view probes it: a body list whole, the year list
// filtered by a range, and the author list by a textual equality that one
// value matches and one does not.
func BenchmarkLazyPathLookup(b *testing.B) {
	pix, _, err := uncachedStore(b, servedDoc(b, "served.xml", 1, 38, 45)).StoredIndices("served.xml")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		steps []pathindex.Step
		preds []pred.Predicate
	}{
		{"unfiltered", bdySteps, nil},
		{"range", yrSteps, []pred.Predicate{{Op: pred.Gt, Lit: "1990"}}},
		{"equality", auSteps, []pred.Predicate{{Op: pred.Eq, Lit: "author3"}}},
		{"absent", auSteps, []pred.Predicate{{Op: pred.Eq, Lit: "nobody"}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				pathSink = pix.LookupPath(c.steps, c.preds)
			}
			for _, pp := range pathSink {
				n += len(pp.Postings)
			}
			b.ReportMetric(float64(n), "postings")
		})
	}
}

// entryNamed returns the document-table entry registered under name, or nil.
func entryNamed(ds *Store, name string) *docEntry {
	e, _ := ds.Entry(name)
	return e
}
