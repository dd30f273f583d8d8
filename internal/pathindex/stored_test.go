package pathindex_test

// The oracles here run against both forms of an index: the one Build keeps
// resident and the one the disk store opens from its stored record (a view
// that decodes one path's list per lookup). The disk store imports this
// package, so they live in the external test package.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"vxml/internal/diskstore"
	"vxml/internal/pathindex"
	"vxml/internal/pred"
	"vxml/internal/xmltree"
)

// valueDoc builds a random document over a tiny tag alphabet (so '//'
// expansion and repeated tags are exercised) whose leaves carry values that
// are numerically equal but textually different ("7", "07", "7.0"), plain
// numbers and text. Some elements are empty, so a path can hold leaf and
// non-leaf elements at once.
func valueDoc(r *rand.Rand, docID int32) *xmltree.Document {
	tags := []string{"a", "b", "c"}
	values := []string{"7", "07", "7.0", "12", "3", "x", "y"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		n := xmltree.NewElement(tags[r.Intn(len(tags))])
		if depth <= 0 || r.Intn(4) == 0 {
			if r.Intn(8) != 0 {
				n.Value = values[r.Intn(len(values))]
			}
			return n
		}
		for i := 0; i < 1+r.Intn(4); i++ {
			n.AppendChild(build(depth - 1))
		}
		return n
	}
	doc := &xmltree.Document{Name: fmt.Sprintf("t%d.xml", docID), Root: build(4), DocID: docID}
	doc.Finalize()
	return doc
}

// builtAndStored returns, per document, the index Build makes of it and
// the one a disk store opens from the record it wrote — read back from disk
// on every call, since the store caches no index.
func builtAndStored(t *testing.T, docs []*xmltree.Document) []map[string]*pathindex.Index {
	t.Helper()
	ds, err := diskstore.Init(t.TempDir(), 1, diskstore.Options{IndexCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() }) //nolint:errcheck
	out := make([]map[string]*pathindex.Index, len(docs))
	for i, doc := range docs {
		if err := ds.RegisterParsed(doc); err != nil {
			t.Fatal(err)
		}
		stored, _, err := ds.StoredIndices(doc.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = map[string]*pathindex.Index{"Build": pathindex.Build(doc), "stored": stored}
	}
	return out
}

// scanLookupPath is the reference lookup, from the document alone: per
// full data path of the document matching the pattern, in path order, a
// document-order scan copying the elements on that path the predicates
// admit (pred.All; only leaves have a value to admit).
func scanLookupPath(doc *xmltree.Document, dict []string, steps []pathindex.Step, preds []pred.Predicate) []pathindex.PathPostings {
	var out []pathindex.PathPostings
	for _, fp := range dict {
		if !pathindex.MatchPath(steps, fp) {
			continue
		}
		var postings []pathindex.Posting
		pathindex.WalkPaths(doc, func(n *xmltree.Node, path string) {
			if path != fp || len(preds) > 0 && (!n.IsLeaf() || !pred.All(preds, n.Value)) {
				return
			}
			p := pathindex.Posting{ID: n.ID, ByteLen: n.ByteLen}
			if n.IsLeaf() {
				p.Value, p.HasValue = n.Value, true
			}
			postings = append(postings, p)
		})
		if len(postings) > 0 {
			out = append(out, pathindex.PathPostings{FullPath: fp, Segs: strings.Split(fp[1:], "/"), Postings: postings})
		}
	}
	return out
}

// TestLookupPathEqualsScanCopySort: on generated documents × patterns
// (child, descendant, repeated tags) × predicates (none, textual and numeric
// equality, range, two at once), LookupPath answers exactly as the
// document-scan reference does — same full paths, segments and postings in
// the same order — from an index built from the document and from the one
// the disk store opens from its stored record, and it counts one probe per
// full data path, whether binary search or the value filter answers it.
func TestLookupPathEqualsScanCopySort(t *testing.T) {
	predSets := [][]pred.Predicate{
		nil,
		{{Op: pred.Eq, Lit: "x"}},
		{{Op: pred.Eq, Lit: "7"}},
		{{Op: pred.Eq, Lit: "07"}},
		{{Op: pred.Eq, Lit: "7.00"}}, // a numeric literal: the filter answers
		{{Op: pred.Gt, Lit: "5"}},
		{{Op: pred.Lt, Lit: "x"}},
		{{Op: pred.Gt, Lit: "3"}, {Op: pred.Lt, Lit: "12"}},
		{{Op: pred.Eq, Lit: "7"}, {Op: pred.Gt, Lit: "1"}},
	}
	var docs []*xmltree.Document
	for seed := int64(0); seed < 40; seed++ {
		docs = append(docs, valueDoc(rand.New(rand.NewSource(seed)), int32(seed+1)))
	}
	for seed, forms := range builtAndStored(t, docs) {
		doc := docs[seed]
		seen := map[string]bool{}
		pathindex.WalkPaths(doc, func(_ *xmltree.Node, path string) { seen[path] = true })
		var dict []string
		for p := range seen {
			dict = append(dict, p)
		}
		sort.Strings(dict)
		for name, ix := range forms {
			if !reflect.DeepEqual(ix.Paths(), dict) {
				t.Fatalf("seed %d %s: dictionary %v, want %v", seed, name, ix.Paths(), dict)
			}
			root := pathindex.Step{Axis: pathindex.Child, Tag: doc.Root.Tag}
			patterns := [][]pathindex.Step{
				{root},
				{root, {Axis: pathindex.Child, Tag: "a"}, {Axis: pathindex.Child, Tag: "b"}},
				{root, {Axis: pathindex.Descendant, Tag: "c"}},
				{{Axis: pathindex.Descendant, Tag: "a"}, {Axis: pathindex.Descendant, Tag: "a"}},
				{root, {Axis: pathindex.Descendant, Tag: "b"}, {Axis: pathindex.Child, Tag: "b"}, {Axis: pathindex.Descendant, Tag: "a"}},
				{{Axis: pathindex.Descendant, Tag: "c"}, {Axis: pathindex.Child, Tag: "a"}},
			}
			for _, pattern := range patterns {
				for _, preds := range predSets {
					want := scanLookupPath(doc, dict, pattern, preds)
					before := ix.Probes()
					got := ix.LookupPath(pattern, preds)
					probes := ix.Probes() - before
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s: LookupPath(%s, %v)\n got %+v\nwant %+v", seed, name, pathindex.FormatSteps(pattern), preds, got, want)
					}
					if wantProbes := len(ix.MatchFullPaths(pattern)); probes != wantProbes {
						t.Fatalf("seed %d %s: LookupPath(%s, %v) counted %d probes, want %d", seed, name, pathindex.FormatSteps(pattern), preds, probes, wantProbes)
					}
				}
			}
		}
	}
}

// TestTagPostingsEqualsDocumentScan: the lazily derived tag index holds, per
// tag, every element's posting in document order — what the eager tag index
// Build used to fill during its walk held — and concurrent first calls are
// safe (run with -race).
func TestTagPostingsEqualsDocumentScan(t *testing.T) {
	var docs []*xmltree.Document
	for seed := int64(0); seed < 20; seed++ {
		docs = append(docs, valueDoc(rand.New(rand.NewSource(seed)), int32(seed+1)))
	}
	for seed, forms := range builtAndStored(t, docs) {
		want := map[string][]pathindex.Posting{}
		docs[seed].Root.Walk(func(n *xmltree.Node) {
			p := pathindex.Posting{ID: n.ID, ByteLen: n.ByteLen}
			if n.IsLeaf() {
				p.Value, p.HasValue = n.Value, true
			}
			want[n.Tag] = append(want[n.Tag], p)
		})
		for name, ix := range forms {
			var wg sync.WaitGroup
			for _, tag := range []string{"a", "b", "c", "nope", "a", "b"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := ix.TagPostings(tag); !reflect.DeepEqual(got, want[tag]) {
						t.Errorf("seed %d %s: TagPostings(%s) = %+v, want %+v", seed, name, tag, got, want[tag])
					}
				}()
			}
			wg.Wait()
		}
	}
}
