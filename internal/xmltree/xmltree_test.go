package xmltree

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"vxml/internal/dewey"
)

const booksXML = `<books>
  <book isbn="111-11-1111">
    <title>XML Web Services</title>
    <publisher>Prentice Hall</publisher>
    <year>2004</year>
  </book>
  <book isbn="222-22-2222">
    <title>Artificial Intelligence</title>
    <publisher>Prentice Hall</publisher>
    <year>2002</year>
  </book>
</books>`

func parseBooks(t *testing.T) *Document {
	t.Helper()
	doc, err := ParseString(booksXML, "books.xml", 1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func TestParseStructure(t *testing.T) {
	doc := parseBooks(t)
	if doc.Root.Tag != "books" {
		t.Fatalf("root tag = %q", doc.Root.Tag)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("expected 2 books, got %d", len(doc.Root.Children))
	}
	book := doc.Root.Children[0]
	// Attribute becomes the first child element.
	if book.Children[0].Tag != "isbn" || book.Children[0].Value != "111-11-1111" {
		t.Errorf("attribute conversion failed: %+v", book.Children[0])
	}
	if book.Children[1].Tag != "title" || book.Children[1].Value != "XML Web Services" {
		t.Errorf("title = %+v", book.Children[1])
	}
}

func TestDeweyAssignment(t *testing.T) {
	doc := parseBooks(t)
	if got := doc.Root.ID.String(); got != "1" {
		t.Errorf("root ID = %q", got)
	}
	book2 := doc.Root.Children[1]
	if got := book2.ID.String(); got != "1.2" {
		t.Errorf("second book ID = %q", got)
	}
	if got := book2.Children[1].ID.String(); got != "1.2.2" {
		t.Errorf("title of second book ID = %q", got)
	}
}

func TestFindByID(t *testing.T) {
	doc := parseBooks(t)
	cases := []struct {
		id  string
		tag string
		ok  bool
	}{
		{"1", "books", true},
		{"1.1", "book", true},
		{"1.1.2", "title", true},
		{"1.9", "", false},
		{"2", "", false},
		{"1.1.2.1", "", false},
	}
	for _, c := range cases {
		n := doc.FindByID(dewey.MustParse(c.id))
		if c.ok && (n == nil || n.Tag != c.tag) {
			t.Errorf("FindByID(%s) = %v, want tag %q", c.id, n, c.tag)
		}
		if !c.ok && n != nil {
			t.Errorf("FindByID(%s) = %v, want nil", c.id, n)
		}
	}
}

func TestFindByIDInverseOfWalk(t *testing.T) {
	doc := parseBooks(t)
	doc.Root.Walk(func(n *Node) {
		if got := doc.FindByID(n.ID); got != n {
			t.Errorf("FindByID(%s) did not return the walked node", n.ID)
		}
	})
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"XML Web Services", []string{"xml", "web", "services"}},
		{"  easy-to-read, really! ", []string{"easy", "to", "read", "really"}},
		{"", nil},
		{"...", nil},
		{"a1 B2", []string{"a1", "b2"}},
		{"111-11-1111", []string{"111", "11", "1111"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSubtreeTFAndContains(t *testing.T) {
	doc, err := ParseString(
		`<r><a>xml search</a><b><c>xml xml</c></b></r>`, "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	tf := SubtreeTF(doc.Root, []string{"xml", "search", "missing"})
	if !reflect.DeepEqual(tf, []int{3, 1, 0}) {
		t.Errorf("SubtreeTF = %v", tf)
	}
	if !Contains(doc.Root, "search") {
		t.Error("Contains(search) = false")
	}
	if Contains(doc.Root.Children[1], "search") {
		t.Error("b subtree should not contain 'search'")
	}
	if Contains(doc.Root, "missing") {
		t.Error("Contains(missing) = true")
	}
}

func TestByteLenAdditive(t *testing.T) {
	doc := parseBooks(t)
	doc.Root.Walk(func(n *Node) {
		want := 2*len(n.Tag) + 5 + len(n.Value)
		for _, c := range n.Children {
			want += c.ByteLen
		}
		if n.ByteLen != want {
			t.Errorf("ByteLen(%s) = %d, want %d", n.ID, n.ByteLen, want)
		}
	})
}

func TestSerializeParseRoundTrip(t *testing.T) {
	doc := parseBooks(t)
	out := doc.Root.XMLString("")
	doc2, err := ParseString(out, "books.xml", 1)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !equalTree(doc.Root, doc2.Root) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", out, doc2.Root.XMLString(""))
	}
}

func TestEscaping(t *testing.T) {
	doc, err := ParseString("<r><a>x &lt; y &amp; z</a></r>", "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Children[0].Value != "x < y & z" {
		t.Errorf("unescape failed: %q", doc.Root.Children[0].Value)
	}
	out := doc.Root.XMLString("")
	doc2, err := ParseString(out, "r.xml", 1)
	if err != nil {
		t.Fatalf("reparse escaped: %v (%s)", err, out)
	}
	if doc2.Root.Children[0].Value != "x < y & z" {
		t.Errorf("round trip of special chars: %q", doc2.Root.Children[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a><b></a></b>", "<a></a><b></b>", "just text"} {
		if _, err := ParseString(bad, "bad.xml", 1); err == nil {
			t.Errorf("ParseString(%q): expected error", bad)
		}
	}
}

// TestParseRejectsDeepDocument: a document maxDepth elements deep parses,
// and one level more fails with ErrTooDeep.
func TestParseRejectsDeepDocument(t *testing.T) {
	nested := func(depth int) string {
		return strings.Repeat("<a>", depth) + "text" + strings.Repeat("</a>", depth)
	}
	doc, err := ParseString(nested(maxDepth), "deep.xml", 1)
	if err != nil {
		t.Fatalf("%d levels, the limit: %v", maxDepth, err)
	}
	if got := doc.ComputeStats().MaxDepth; got != maxDepth {
		t.Fatalf("MaxDepth = %d, want %d", got, maxDepth)
	}
	for _, depth := range []int{maxDepth + 1, 4 * maxDepth} {
		if _, err := ParseString(nested(depth), "deep.xml", 1); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%d levels: err = %v, want ErrTooDeep", depth, err)
		}
	}
}

// TestNodeSize pins the size of a node: every document, pruned tree and
// view result holds one per element, so a new field is a deliberate choice.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 96 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, want 96", got)
	}
}

func TestComputeStats(t *testing.T) {
	doc := parseBooks(t)
	s := doc.ComputeStats()
	if s.Elements != 11 { // books + 2*(book + 4 fields)
		t.Errorf("Elements = %d", s.Elements)
	}
	if s.MaxDepth != 3 {
		t.Errorf("MaxDepth = %d", s.MaxDepth)
	}
	if s.Bytes != doc.Root.ByteLen {
		t.Errorf("Bytes = %d, want %d", s.Bytes, doc.Root.ByteLen)
	}
}

func equalTree(a, b *Node) bool {
	if a.Tag != b.Tag || a.Value != b.Value || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !equalTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// randomTree builds a small random element tree for property tests.
func randomTree(r *rand.Rand, depth int) *Node {
	tags := []string{"a", "b", "c", "d"}
	words := []string{"xml", "search", "data", "query", "view"}
	n := NewElement(tags[r.Intn(len(tags))])
	if depth <= 0 || r.Intn(3) == 0 {
		n.Value = words[r.Intn(len(words))] + " " + words[r.Intn(len(words))]
		return n
	}
	for i := 0; i < 1+r.Intn(3); i++ {
		n.AppendChild(randomTree(r, depth-1))
	}
	return n
}

func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := &Document{Name: "t.xml", Root: randomTree(r, 3), DocID: 1}
		doc.Finalize()
		out := doc.Root.XMLString("  ")
		doc2, err := ParseString(out, "t.xml", 1)
		return err == nil && equalTree(doc.Root, doc2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickIDsStrictlyIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := &Document{Name: "t.xml", Root: randomTree(r, 4), DocID: 1}
		doc.Finalize()
		var prev dewey.ID
		ok := true
		doc.Root.Walk(func(n *Node) {
			if prev != nil && dewey.Compare(prev, n.ID) >= 0 {
				ok = false
			}
			prev = n.ID
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtreeTFMatchesTokenCount(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := &Document{Name: "t.xml", Root: randomTree(r, 3), DocID: 1}
		doc.Finalize()
		kw := []string{"xml", "query"}
		tf := SubtreeTF(doc.Root, kw)
		// reference: serialize all text and count
		var texts []string
		doc.Root.Walk(func(n *Node) { texts = append(texts, n.Value) })
		all := Tokenize(strings.Join(texts, " "))
		want := make([]int, len(kw))
		for _, tok := range all {
			for i, k := range kw {
				if tok == k {
					want[i]++
				}
			}
		}
		return reflect.DeepEqual(tf, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fprintfXML is the serializer as it was written with fmt.Fprintf, kept as
// the byte-identity oracle for writeXML.
func fprintfXML(b *strings.Builder, n *Node, indent string, depth int) {
	pad, nl := "", ""
	if indent != "" {
		pad, nl = strings.Repeat(indent, depth), "\n"
	}
	esc := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s<%s>%s</%s>%s", pad, n.Tag, esc(n.Value), n.Tag, nl)
		return
	}
	fmt.Fprintf(b, "%s<%s>%s", pad, n.Tag, nl)
	if n.Value != "" {
		fmt.Fprintf(b, "%s%s%s", pad+indent, esc(n.Value), nl)
	}
	for _, c := range n.Children {
		fprintfXML(b, c, indent, depth+1)
	}
	fmt.Fprintf(b, "%s</%s>%s", pad, n.Tag, nl)
}

// plainWriter is an io.Writer and nothing more, as an unbuffered sink would
// be, and counts the Write calls it receives.
type plainWriter struct {
	b      strings.Builder
	writes int
}

func (w *plainWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.b.Write(p)
}

// TestSerializationByteIdentical: compact and indented output, escaped
// values, empty leaves and mixed content (a value on a non-leaf) all come
// out exactly as the Fprintf serializer wrote them, through XMLString and
// through a plain io.Writer — which is written to in blocks, not once per
// tag fragment: store.Save hands WriteXML an unbuffered file.
func TestSerializationByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	values := []string{"", "plain text", "a < b & c > d", "&&", "<tag>"}
	for trial := 0; trial < 200; trial++ {
		root := randomTree(r, 1+r.Intn(4))
		root.Walk(func(n *Node) {
			if n.IsLeaf() || r.Intn(4) == 0 { // some non-leaves get a value too
				n.Value = values[r.Intn(len(values))]
			}
		})
		for _, indent := range []string{"", "  ", "\t"} {
			var want strings.Builder
			var plain plainWriter
			fprintfXML(&want, root, indent, 0)
			if got := root.XMLString(indent); got != want.String() {
				t.Fatalf("trial %d indent %q:\ngot  %q\nwant %q", trial, indent, got, want.String())
			}
			if err := root.WriteXML(&plain, indent); err != nil || plain.b.String() != want.String() {
				t.Fatalf("trial %d indent %q through io.Writer: %v\ngot  %q\nwant %q", trial, indent, err, plain.b.String(), want.String())
			}
			if most := want.Len()/4096 + 1; plain.writes > most {
				t.Fatalf("trial %d indent %q: %d Write calls for %d bytes, want at most %d", trial, indent, plain.writes, want.Len(), most)
			}
		}
	}
}

// failingWriter rejects every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteXMLReturnsTheWriteError(t *testing.T) {
	doc, err := ParseString("<a><b>text</b></a>", "t.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Root.WriteXML(failingWriter{}, ""); err != io.ErrClosedPipe {
		t.Fatalf("WriteXML to a failing writer returned %v", err)
	}
}
