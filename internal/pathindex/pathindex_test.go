package pathindex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vxml/internal/dewey"
	"vxml/internal/pred"
	"vxml/internal/xmltree"
)

const booksXML = `<books>
  <book><isbn>111-11-1111</isbn><title>XML Web Services</title><year>1996</year></book>
  <book><isbn>222-22-2222</isbn><title>Artificial Intelligence</title><year>1994</year></book>
  <book><isbn>333-33-3333</isbn><title>Databases</title><year>2004</year></book>
</books>`

func buildBooks(t *testing.T) (*xmltree.Document, *Index) {
	t.Helper()
	doc, err := xmltree.ParseString(booksXML, "books.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	return doc, Build(doc)
}

func steps(pattern ...Step) []Step { return pattern }

func TestMatchPath(t *testing.T) {
	cases := []struct {
		steps []Step
		path  string
		want  bool
	}{
		{steps(Step{Child, "books"}, Step{Descendant, "book"}, Step{Child, "isbn"}), "/books/book/isbn", true},
		{steps(Step{Child, "books"}, Step{Descendant, "book"}, Step{Child, "isbn"}), "/books/shelf/book/isbn", true},
		{steps(Step{Child, "books"}, Step{Child, "book"}, Step{Child, "isbn"}), "/books/shelf/book/isbn", false},
		{steps(Step{Child, "books"}, Step{Descendant, "isbn"}), "/books/book/isbn", true},
		{steps(Step{Child, "books"}, Step{Child, "book"}), "/books/book/isbn", false}, // must match whole path
		{steps(Step{Descendant, "a"}, Step{Descendant, "a"}), "/a/a/a", true},
		{steps(Step{Descendant, "a"}, Step{Descendant, "a"}, Step{Descendant, "a"}, Step{Descendant, "a"}), "/a/a/a", false},
	}
	for _, c := range cases {
		if got := MatchPath(c.steps, c.path); got != c.want {
			t.Errorf("MatchPath(%s, %s) = %v, want %v", FormatSteps(c.steps), c.path, got, c.want)
		}
	}
}

func TestFormatSteps(t *testing.T) {
	s := steps(Step{Child, "books"}, Step{Descendant, "book"}, Step{Child, "isbn"})
	if got := FormatSteps(s); got != "/books//book/isbn" {
		t.Errorf("FormatSteps = %q", got)
	}
}

func TestLookupPathNoPred(t *testing.T) {
	_, ix := buildBooks(t)
	res := ix.LookupPath(steps(Step{Child, "books"}, Step{Descendant, "book"}, Step{Child, "isbn"}), nil)
	if len(res) != 1 || res[0].FullPath != "/books/book/isbn" {
		t.Fatalf("res = %+v", res)
	}
	var ids []string
	for _, p := range res[0].Postings {
		ids = append(ids, p.ID.String())
	}
	want := []string{"1.1.1", "1.2.1", "1.3.1"}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("ids = %v, want %v", ids, want)
	}
	if !res[0].Postings[0].HasValue || res[0].Postings[0].Value != "111-11-1111" {
		t.Errorf("values not propagated: %+v", res[0].Postings[0])
	}
}

func TestLookupPathEqualityPredicate(t *testing.T) {
	_, ix := buildBooks(t)
	probesBefore := ix.Probes()
	res := ix.LookupPath(
		steps(Step{Child, "books"}, Step{Child, "book"}, Step{Child, "isbn"}),
		[]pred.Predicate{{Op: pred.Eq, Lit: "222-22-2222"}})
	if len(res) != 1 || len(res[0].Postings) != 1 || res[0].Postings[0].ID.String() != "1.2.1" {
		t.Fatalf("res = %+v", res)
	}
	if ix.Probes() != probesBefore+1 {
		t.Errorf("an equality lookup of one full path counted %d probes, want 1", ix.Probes()-probesBefore)
	}
}

func TestLookupPathRangePredicate(t *testing.T) {
	_, ix := buildBooks(t)
	res := ix.LookupPath(
		steps(Step{Child, "books"}, Step{Descendant, "book"}, Step{Child, "year"}),
		[]pred.Predicate{{Op: pred.Gt, Lit: "1995"}})
	var ids []string
	for _, p := range res[0].Postings {
		ids = append(ids, p.ID.String())
	}
	want := []string{"1.1.3", "1.3.3"} // years 1996 and 2004
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("ids = %v, want %v", ids, want)
	}
}

func TestLookupNonLeafPath(t *testing.T) {
	_, ix := buildBooks(t)
	res := ix.LookupPath(steps(Step{Child, "books"}, Step{Child, "book"}), nil)
	if len(res) != 1 || len(res[0].Postings) != 3 {
		t.Fatalf("res = %+v", res)
	}
	if res[0].Postings[0].HasValue {
		t.Error("non-leaf posting should have null value")
	}
	if res[0].Postings[0].ByteLen == 0 {
		t.Error("byte length missing")
	}
}

func TestLookupMissingPath(t *testing.T) {
	_, ix := buildBooks(t)
	if res := ix.LookupPath(steps(Step{Child, "books"}, Step{Child, "missing"}), nil); res != nil {
		t.Errorf("expected nil, got %+v", res)
	}
}

func TestDescendantExpansionAcrossFullPaths(t *testing.T) {
	xmlText := `<r><a><x>1</x></a><b><a><x>2</x></a></b></r>`
	doc, err := xmltree.ParseString(xmlText, "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	res := ix.LookupPath(steps(Step{Child, "r"}, Step{Descendant, "a"}, Step{Child, "x"}), nil)
	if len(res) != 2 {
		t.Fatalf("expected 2 full paths, got %+v", res)
	}
	paths := []string{res[0].FullPath, res[1].FullPath}
	want := []string{"/r/a/x", "/r/b/a/x"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v, want %v", paths, want)
	}
}

func TestTagPostings(t *testing.T) {
	_, ix := buildBooks(t)
	books := ix.TagPostings("book")
	if len(books) != 3 {
		t.Fatalf("TagPostings(book) = %d entries", len(books))
	}
	if books[1].ID.String() != "1.2" {
		t.Errorf("second book = %s", books[1].ID)
	}
	if ix.TagPostings("nope") != nil {
		t.Error("unknown tag should be nil")
	}
}

func TestPathsDictionary(t *testing.T) {
	_, ix := buildBooks(t)
	want := []string{"/books", "/books/book", "/books/book/isbn", "/books/book/title", "/books/book/year"}
	if !reflect.DeepEqual(ix.Paths(), want) {
		t.Errorf("Paths = %v", ix.Paths())
	}
}

func TestDistinctRowCount(t *testing.T) {
	_, ix := buildBooks(t)
	// 2 non-leaf rows (/books, /books/book) + 9 distinct leaf (path,value) rows
	if got := ix.DistinctRowCount(); got != 11 {
		t.Errorf("DistinctRowCount = %d", got)
	}
}

// randomDoc builds a random document over a tiny tag alphabet so that //
// expansion and repeated tags are exercised.
func randomDoc(r *rand.Rand) *xmltree.Document {
	tags := []string{"a", "b", "c"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		n := xmltree.NewElement(tags[r.Intn(len(tags))])
		if depth <= 0 || r.Intn(3) == 0 {
			n.Value = []string{"1", "2", "3", "x"}[r.Intn(4)]
			return n
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			n.AppendChild(build(depth - 1))
		}
		return n
	}
	doc := &xmltree.Document{Name: "t.xml", Root: build(3), DocID: 1}
	doc.Finalize()
	return doc
}

// TestQuickLookupEqualsScan: index lookups must equal a naive document scan
// for random documents and random patterns.
func TestQuickLookupEqualsScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r)
		ix := Build(doc)
		// random pattern: root tag + one or two descendant steps
		pattern := []Step{{Child, doc.Root.Tag}}
		for i := 0; i < 1+r.Intn(2); i++ {
			ax := Child
			if r.Intn(2) == 0 {
				ax = Descendant
			}
			pattern = append(pattern, Step{ax, []string{"a", "b", "c"}[r.Intn(3)]})
		}
		// index result: all IDs across full paths
		got := map[string]bool{}
		for _, pp := range ix.LookupPath(pattern, nil) {
			for _, p := range pp.Postings {
				got[p.ID.String()] = true
			}
		}
		// reference: scan the document
		want := map[string]bool{}
		WalkPaths(doc, func(n *xmltree.Node, path string) {
			if MatchPath(pattern, path) {
				want[n.ID.String()] = true
			}
		})
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPostingsSorted: every lookup's postings arrive in Dewey order.
func TestQuickPostingsSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r)
		ix := Build(doc)
		for _, tag := range []string{"a", "b", "c"} {
			pattern := []Step{{Child, doc.Root.Tag}, {Descendant, tag}}
			for _, pp := range ix.LookupPath(pattern, nil) {
				for i := 1; i < len(pp.Postings); i++ {
					if !dewey.Less(pp.Postings[i-1].ID, pp.Postings[i].ID) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFilterPassKeepsValueSemantics: the filter pass parses each predicate
// literal once per lookup; the comparison stays value-based — numeric when
// both sides are numbers ("07" = "7"), textual otherwise ("10x") — and the
// survivors are exactly those pred.All admits, in document order.
func TestFilterPassKeepsValueSemantics(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><v>7</v><v>07</v><v>7.0</v><v>10x</v><v>9</v><v>abc</v><v>10</v><v></v></r>`, "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc)
	steps := []Step{{Child, "r"}, {Child, "v"}}
	for _, preds := range [][]pred.Predicate{
		{{Op: pred.Eq, Lit: "7"}},                            // the value "7" exists, and is a third of the answer
		{{Op: pred.Eq, Lit: "07"}},                           // so does "07"
		{{Op: pred.Eq, Lit: "007"}},                          // no such value: 7, 07 and 7.0 are all 7
		{{Op: pred.Eq, Lit: "7.00"}},                         // textually absent, numerically 7
		{{Op: pred.Gt, Lit: "8"}},                            // "10x" > "8" is false as text, 9 and 10 pass as numbers
		{{Op: pred.Lt, Lit: "9"}, {Op: pred.Gt, Lit: "1"}},   // two predicates
		{{Op: pred.Gt, Lit: "10"}},                           // "10x" > "10" as text, "abc" too
		{{Op: pred.Eq, Lit: "abc"}},                          // not a number: found by binary search, by spelling
		{{Op: pred.Eq, Lit: "abd"}},                          // and its miss
		{{Op: pred.Lt, Lit: "zzz"}, {Op: pred.Gt, Lit: "0"}}, // non-numeric literal: all text
	} {
		var want []string
		doc.Root.Walk(func(n *xmltree.Node) {
			if n.Tag == "v" && pred.All(preds, n.Value) {
				want = append(want, n.ID.String()+"="+n.Value)
			}
		})
		var got []string
		for _, pp := range ix.LookupPath(steps, preds) {
			for _, p := range pp.Postings {
				got = append(got, p.ID.String()+"="+p.Value)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("preds %v: got %v, want %v", preds, got, want)
		}
	}
}

// WalkPaths visits every element of doc in document order with its
// root-to-element label path, e.g. "/books/book/isbn" — the data path the
// index files the element under. (Exported for the external test package.)
func WalkPaths(doc *xmltree.Document, visit func(n *xmltree.Node, path string)) {
	var walk func(n *xmltree.Node, prefix string)
	walk = func(n *xmltree.Node, prefix string) {
		path := prefix + "/" + n.Tag
		visit(n, path)
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	walk(doc.Root, "")
}
