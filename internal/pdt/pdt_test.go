package pdt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pred"
	"vxml/internal/qpt"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

const booksXML = `<books>
  <book><isbn>111-11-1111</isbn><title>XML Web Services</title><year>1996</year></book>
  <book><isbn>222-22-2222</isbn><title>Ancient History</title><year>1990</year></book>
  <book><isbn>333-33-3333</isbn><title>Search Engines</title><year>2004</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111-11-1111</isbn><content>all about search</content></review>
  <review><content>orphan review with xml</content></review>
  <review><isbn>333-33-3333</isbn><content>an xml search classic</content></review>
</reviews>`

const figure2View = `
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <bookrevs>
         <book> {$book/title} </book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

func parseDoc(t *testing.T, xmlText, name string, docID int32) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(xmlText, name, docID)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func generateFor(t *testing.T, doc *xmltree.Document, q *qpt.QPT, keywords []string) *PDT {
	t.Helper()
	pix := pathindex.Build(doc)
	iix := invindex.Build(doc)
	lists := PrepareLists(q, pix, iix, keywords)
	return Generate(q, lists, doc.Name)
}

func viewQPTs(t *testing.T, view string) []*qpt.QPT {
	t.Helper()
	q, err := xq.Parse(view)
	if err != nil {
		t.Fatal(err)
	}
	qpts, err := qpt.Generate(q.Body, q.Functions)
	if err != nil {
		t.Fatal(err)
	}
	return qpts
}

// TestFigure6bBooks mirrors the paper's Figure 6(b): the book PDT keeps
// only books passing the year predicate, materializes isbn and year values,
// and attaches tf payloads to title elements.
func TestFigure6bBooks(t *testing.T) {
	books := parseDoc(t, booksXML, "books.xml", 1)
	qpts := viewQPTs(t, figure2View)
	pdt := generateFor(t, books, qpts[0], []string{"xml", "search"})
	if pdt.Doc == nil {
		t.Fatal("empty PDT")
	}
	root := pdt.Doc.Root
	if root.Tag != "books" || len(root.Children) != 2 {
		t.Fatalf("root = %s with %d children", root.Tag, len(root.Children))
	}
	book1, book3 := root.Children[0], root.Children[1]
	if book1.ID.String() != "1.1" || book3.ID.String() != "1.3" {
		t.Fatalf("kept books %s, %s (year predicate should drop 1.2)", book1.ID, book3.ID)
	}
	// isbn ('v') has its value; year ('v') has its value; title ('c') has
	// tf payload but no value.
	byTag := map[string]*xmltree.Node{}
	for _, c := range book1.Children {
		byTag[c.Tag] = c
	}
	if byTag["isbn"] == nil || byTag["isbn"].Value != "111-11-1111" {
		t.Errorf("isbn = %+v", byTag["isbn"])
	}
	if byTag["year"] == nil || byTag["year"].Value != "1996" {
		t.Errorf("year = %+v", byTag["year"])
	}
	title := byTag["title"]
	if title == nil || title.Meta == nil {
		t.Fatalf("title = %+v", title)
	}
	if title.Value != "" {
		t.Errorf("title value should be pruned, got %q", title.Value)
	}
	// "XML Web Services": tf(xml)=1, tf(search)=0
	if title.Meta.TFs[0] != 1 || title.Meta.TFs[1] != 0 {
		t.Errorf("title TFs = %v", title.Meta.TFs)
	}
	if title.ByteLen == 0 || title.ID.String() != "1.1.2" {
		t.Errorf("title ID %s ByteLen %d, want the base title's", title.ID, title.ByteLen)
	}
}

// TestFigure6bReviews: reviews without an isbn fail the mandatory edge, and
// their content is excluded by the ancestor constraint even though content
// itself has no constraints.
func TestFigure6bReviews(t *testing.T) {
	reviews := parseDoc(t, reviewsXML, "reviews.xml", 2)
	qpts := viewQPTs(t, figure2View)
	pdt := generateFor(t, reviews, qpts[1], []string{"xml", "search"})
	root := pdt.Doc.Root
	if len(root.Children) != 2 {
		t.Fatalf("kept %d reviews, want 2 (orphan must be pruned)", len(root.Children))
	}
	for _, rev := range root.Children {
		if rev.ID.String() == "2.2" {
			t.Error("review without isbn must not be in the PDT")
		}
		var hasIsbn, hasContent bool
		for _, c := range rev.Children {
			if c.Tag == "isbn" && c.Value != "" {
				hasIsbn = true
			}
			if c.Tag == "content" && c.Meta != nil {
				hasContent = true
			}
		}
		if !hasIsbn || !hasContent {
			t.Errorf("review %s missing isbn value or content meta", rev.ID)
		}
	}
	// content of review 2.3: "an xml search classic" -> tf(xml)=1, tf(search)=1
	last := root.Children[1]
	for _, c := range last.Children {
		if c.Tag == "content" {
			if c.Meta.TFs[0] != 1 || c.Meta.TFs[1] != 1 {
				t.Errorf("content TFs = %v", c.Meta.TFs)
			}
		}
	}
}

func TestEmptyPDT(t *testing.T) {
	books := parseDoc(t, booksXML, "books.xml", 1)
	qpts := viewQPTs(t, `
for $b in fn:doc(books.xml)/books//book
where $b/year > 2100
return $b/title`)
	pdt := generateFor(t, books, qpts[0], nil)
	if pdt.Doc != nil && pdt.Doc.Root != nil {
		t.Errorf("expected empty PDT, got %d nodes", pdt.Nodes)
	}
}

func TestPDTMuchSmallerThanDoc(t *testing.T) {
	// The paper reports ~2MB PDTs from 500MB data; at small scale the PDT
	// must still contain only QPT-relevant elements.
	var b strings.Builder
	b.WriteString("<books>")
	for i := 0; i < 200; i++ {
		year := 1980 + i%40
		fmt.Fprintf(&b, "<book><isbn>i%d</isbn><title>t%d</title><year>%d</year>", i, i, year)
		// noise subtree that no QPT node matches
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&b, "<noise><deep><deeper>text %d %d</deeper></deep></noise>", i, j)
		}
		b.WriteString("</book>")
	}
	b.WriteString("</books>")
	doc := parseDoc(t, b.String(), "books.xml", 1)
	qpts := viewQPTs(t, figure2View)
	pdt := generateFor(t, doc, qpts[0], []string{"xml"})
	total := doc.ComputeStats().Elements
	if pdt.Nodes >= total/3 {
		t.Errorf("PDT has %d nodes of %d total; pruning ineffective", pdt.Nodes, total)
	}
}

func TestRepeatedTagsDeepPath(t *testing.T) {
	// QPT //a//a over /a/a/a: the middle element matches both QPT nodes.
	doc := parseDoc(t, `<a><a><a><x>v</x></a></a></a>`, "r.xml", 1)
	qpts := viewQPTs(t, `for $v in fn:doc(r.xml)//a//a return $v`)
	pdt := generateFor(t, doc, qpts[0], nil)
	ref := Reference(qpts[0], doc, nil)
	if got, want := render(pdt), render(ref); got != want {
		t.Errorf("repeated tags:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// PE(//a, outer) = {1, 1.1} (must have an 'a' descendant); PE(//a,
	// inner) = {1.1, 1.1.1} (must have an 'a' ancestor); the PDT is their
	// union.
	if pdt.Nodes != 3 {
		t.Errorf("PDT nodes = %d:\n%s", pdt.Nodes, render(pdt))
	}
}

func TestMandatoryDescendantAxis(t *testing.T) {
	doc := parseDoc(t, `<r><g><b><c>x</c></b></g><g><b>no c</b></g></r>`, "r.xml", 1)
	qpts := viewQPTs(t, `for $g in fn:doc(r.xml)/r/g where $g//c = 'x' return $g`)
	pdt := generateFor(t, doc, qpts[0], nil)
	ref := Reference(qpts[0], doc, nil)
	if got, want := render(pdt), render(ref); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
	if pdt.Doc == nil || len(pdt.Doc.Root.Children) != 1 {
		t.Fatalf("expected exactly one g:\n%s", render(pdt))
	}
}

// render dumps a PDT deterministically for comparisons.
func render(p *PDT) string {
	if p.Doc == nil || p.Doc.Root == nil {
		return "(empty)"
	}
	var b strings.Builder
	var walk func(n *xmltree.Node, depth int)
	walk = func(n *xmltree.Node, depth int) {
		b.WriteString(strings.Repeat(" ", depth))
		fmt.Fprintf(&b, "%s id=%s", n.Tag, n.ID)
		if n.Value != "" {
			fmt.Fprintf(&b, " val=%q", n.Value)
		}
		if n.Meta != nil {
			fmt.Fprintf(&b, " tf=%v len=%d", n.Meta.TFs, n.ByteLen)
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Doc.Root, 0)
	return b.String()
}

// ---------------------------------------------------------------- random --

// randomDoc builds documents over a small tag alphabet with values drawn
// from a tiny vocabulary, so predicates and keywords both hit.
func randomDoc(r *rand.Rand, docID int32) *xmltree.Document {
	tags := []string{"a", "b", "c", "d"}
	words := []string{"xml", "search", "data", "1", "2", "3"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		n := xmltree.NewElement(tags[r.Intn(len(tags))])
		if depth <= 0 || r.Intn(3) == 0 {
			n.Value = words[r.Intn(len(words))]
			return n
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			n.AppendChild(build(depth - 1))
		}
		return n
	}
	root := xmltree.NewElement("r")
	for i := 0; i < 2+r.Intn(3); i++ {
		root.AppendChild(build(2 + r.Intn(2)))
	}
	doc := &xmltree.Document{Name: "r.xml", Root: root, DocID: docID}
	doc.Finalize()
	return doc
}

// randomQPT builds a random valid QPT: predicates only on leaves, root
// anchored at the document.
func randomQPT(r *rand.Rand) *qpt.QPT {
	tags := []string{"a", "b", "c", "d"}
	q := &qpt.QPT{Doc: "r.xml", Root: &qpt.Node{}}
	rootElem := addQPTChild(q.Root, "r", pathindex.Child, true)
	var grow func(n *qpt.Node, depth int)
	grow = func(n *qpt.Node, depth int) {
		kids := 1 + r.Intn(2)
		for i := 0; i < kids; i++ {
			axis := pathindex.Child
			if r.Intn(2) == 0 {
				axis = pathindex.Descendant
			}
			child := addQPTChild(n, tags[r.Intn(len(tags))], axis, r.Intn(2) == 0)
			if depth > 0 && r.Intn(2) == 0 {
				grow(child, depth-1)
			} else {
				// leaf: random annotations, sometimes a predicate
				child.V = r.Intn(2) == 0
				child.C = r.Intn(2) == 0
				if r.Intn(3) == 0 {
					child.Preds = []pred.Predicate{{Op: pred.Eq, Lit: []string{"xml", "1", "2"}[r.Intn(3)]}}
					child.V = true
				}
			}
		}
	}
	grow(rootElem, 2)
	return q
}

func addQPTChild(n *qpt.Node, tag string, axis pathindex.Axis, mandatory bool) *qpt.Node {
	child := &qpt.Node{Tag: tag}
	e := &qpt.Edge{From: n, Child: child, Axis: axis, Mandatory: mandatory}
	child.Parent = e
	n.Edges = append(n.Edges, e)
	return child
}

// TestQuickGenerateEqualsReference is the central correctness property:
// the single-pass index-only merge produces exactly the PDT defined by
// Definitions 1-3 over the materialized document. Every third QPT marks
// its virtual root as content, as a view returning the bound document node
// does.
func TestQuickGenerateEqualsReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, 1)
		q := randomQPT(r)
		q.Root.C = seed%3 == 0
		keywords := []string{"xml", "search"}
		pix := pathindex.Build(doc)
		iix := invindex.Build(doc)
		lists := PrepareLists(q, pix, iix, keywords)
		got := render(Generate(q, lists, doc.Name))
		want := render(Reference(q, doc, keywords))
		if got != want {
			t.Logf("seed %d\nQPT:\n%s\ndoc:\n%s\ngot:\n%s\nwant:\n%s",
				seed, q, doc.Root.XMLString("  "), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickTFsMatchMaterialized: tf payloads of 'c' nodes equal term
// frequencies computed over the materialized subtrees (Theorem 4.1(c)).
func TestQuickTFsMatchMaterialized(t *testing.T) {
	keywords := []string{"xml", "search", "data"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, 1)
		q := randomQPT(r)
		pix := pathindex.Build(doc)
		iix := invindex.Build(doc)
		pdt := Generate(q, PrepareLists(q, pix, iix, keywords), doc.Name)
		if pdt.Doc == nil {
			return true
		}
		ok := true
		pdt.Doc.Root.Walk(func(n *xmltree.Node) {
			if n.Meta == nil {
				return
			}
			base := doc.FindByID(n.ID)
			if base == nil {
				ok = false
				return
			}
			want := xmltree.SubtreeTF(base, keywords)
			for i := range keywords {
				if n.Meta.TFs[i] != want[i] {
					ok = false
				}
			}
			if n.ByteLen != base.ByteLen {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestContentMarkShared: every 'c' node of a keyword-free PDT shares
// xmltree.ContentMark, so such a PDT allocates no NodeMeta; the same nodes
// of a PDT generated with keywords each carry their own term frequencies.
func TestContentMarkShared(t *testing.T) {
	keywords := []string{"xml", "search"}
	marked := 0
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r, 1)
		q := randomQPT(r)
		pix, iix := pathindex.Build(doc), invindex.Build(doc)
		bare := Generate(q, PrepareLists(q, pix, iix, nil), doc.Name)
		scored := Generate(q, PrepareLists(q, pix, iix, keywords), doc.Name)
		if bare.Doc == nil {
			continue
		}
		var bareNodes, scoredNodes []*xmltree.Node
		bare.Doc.Root.Walk(func(n *xmltree.Node) { bareNodes = append(bareNodes, n) })
		scored.Doc.Root.Walk(func(n *xmltree.Node) { scoredNodes = append(scoredNodes, n) })
		for i, n := range bareNodes {
			s := scoredNodes[i]
			if n.Meta == nil {
				if s.Meta != nil {
					t.Fatalf("seed %d: node %s marked only with keywords", seed, s.ID)
				}
				continue
			}
			marked++
			if n.Meta != xmltree.ContentMark {
				t.Fatalf("seed %d: keyword-free 'c' node %s has its own Meta %+v", seed, n.ID, *n.Meta)
			}
			if s.Meta == nil || s.Meta == xmltree.ContentMark || len(s.Meta.TFs) != len(keywords) {
				t.Fatalf("seed %d: 'c' node %s with keywords has Meta %+v", seed, s.ID, s.Meta)
			}
		}
	}
	if marked == 0 {
		t.Fatal("no 'c' node generated")
	}
	if len(xmltree.ContentMark.TFs) != 0 {
		t.Fatalf("ContentMark written: %+v", *xmltree.ContentMark)
	}
}

// TestQuickPrepareListsProbeCountIndependentOfData: the number of path
// index probes depends on the QPT, not on the document size.
func TestQuickPrepareListsProbeCountIndependentOfData(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	q := randomQPT(r)
	var counts []int
	for _, size := range []int{1, 5, 25} {
		root := xmltree.NewElement("r")
		for i := 0; i < size; i++ {
			sub := randomDoc(r, 1)
			root.AppendChild(sub.Root)
		}
		doc := &xmltree.Document{Name: "r.xml", Root: root, DocID: 1}
		doc.Finalize()
		pix := pathindex.Build(doc)
		iix := invindex.Build(doc)
		before := pix.Probes()
		PrepareLists(q, pix, iix, []string{"xml"})
		counts = append(counts, pix.Probes()-before)
	}
	// Probe counts may differ slightly because larger documents can have
	// more distinct full data paths for '//' expansion, but must stay tiny
	// and must not scale with element count.
	for _, c := range counts {
		if c > 64 {
			t.Errorf("probe counts %v scale with data size", counts)
		}
	}
}

// TestPrepareListsCostIndependentOfListLength: without predicates the lists
// come out of the index as stored and the match sets out of the QPT's memo,
// so PrepareLists allocates the same number of objects over a document of N
// elements and one of 4N — nothing is copied, split or sorted per posting —
// and a keyword-free run leaves the 'c' nodes' Meta.TFs empty.
func TestPrepareListsCostIndependentOfListLength(t *testing.T) {
	q := viewQPTs(t, `for $b in fn:doc(books.xml)/books//book return <r>{$b/isbn}, {$b/title}</r>`)[0]
	var allocs []float64
	for _, books := range []int{50, 200} {
		var sb strings.Builder
		sb.WriteString("<books>")
		for i := 0; i < books; i++ {
			fmt.Fprintf(&sb, "<book><isbn>%d</isbn><title>xml search volume %d</title></book>", i, i)
		}
		sb.WriteString("</books>")
		doc := parseDoc(t, sb.String(), "books.xml", 1)
		pix, iix := pathindex.Build(doc), invindex.Build(doc)
		lists := PrepareLists(q, pix, iix, nil) // fills the QPT's memo
		if n := len(lists.Paths); n != 3 {
			t.Fatalf("%d lists, want 3 (book, isbn, title)", n)
		}
		for _, pl := range lists.Paths {
			if len(pl.Postings) != books {
				t.Fatalf("%s: %d postings, want %d", pl.FullPath, len(pl.Postings), books)
			}
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() { PrepareLists(q, pix, iix, nil) }))
		Generate(q, lists, doc.Name).Doc.Root.Walk(func(n *xmltree.Node) {
			if n.Meta != nil && n.Meta.TFs != nil {
				t.Fatalf("keyword-free PDT carries TFs on <%s>", n.Tag)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("PrepareLists allocates %v objects over 50 books and %v over 200", allocs[0], allocs[1])
	}
}

// TestGenerateAllocationsIndependentOfDocumentSize: a warm generator
// allocates the PDT it returns — a fixed number of slabs — and nothing per
// element, so a document four times the size costs no more allocations;
// and so does the engine's pooled entry, which prepares the lists in the
// generator's memory too, the predicate-filtered year list included. The
// test holds one generator itself: sync.Pool may drop genPool's at any GC
// (and drops at random under the race detector), after which a run re-grows
// the scratch, which is a property of the pool and not of the generator.
func TestGenerateAllocationsIndependentOfDocumentSize(t *testing.T) {
	q := viewQPTs(t, `for $b in fn:doc(books.xml)/books//book where $b/year > 1995 return <r>{$b/isbn}, {$b/title}</r>`)[0]
	g := &generator{}
	var allocs, pooled []float64
	for _, books := range []int{100, 400} {
		var sb strings.Builder
		sb.WriteString("<books>")
		for i := 0; i < books; i++ {
			fmt.Fprintf(&sb, "<book><isbn>%d</isbn><title>xml search volume %d</title><year>%d</year></book>", i, i, 1990+i%20)
		}
		sb.WriteString("</books>")
		doc := parseDoc(t, sb.String(), "books.xml", 1)
		pix := pathindex.Build(doc)
		lists := PrepareLists(q, pix, invindex.Build(doc), nil)
		if n := g.run(q, lists, doc.Name, new(Arena)).Nodes; n < books { // also grows the scratch to this document
			t.Fatalf("%d books: PDT of %d nodes", books, n)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { g.run(q, lists, doc.Name, new(Arena)) }))
		if n := g.fromIndex(q, pix, doc.Name, new(Arena)).Nodes; n < books {
			t.Fatalf("%d books: pooled PDT of %d nodes", books, n)
		}
		pooled = append(pooled, testing.AllocsPerRun(50, func() { g.fromIndex(q, pix, doc.Name, new(Arena)) }))
	}
	t.Logf("Generate: %v and %v objects; pooled prepare and generate: %v and %v", allocs[0], allocs[1], pooled[0], pooled[1])
	if allocs[1] > allocs[0]+1 || allocs[0] > 8 {
		t.Errorf("Generate allocates %v objects over 100 books and %v over 400, want the same handful", allocs[0], allocs[1])
	}
	if pooled[1] != pooled[0] || pooled[0] > allocs[0] {
		t.Errorf("the pooled prepare and generate allocates %v objects over 100 books and %v over 400, want Generate's %v", pooled[0], pooled[1], allocs[0])
	}
}

// multiRegionView's predicate path $x//b expands to one full data path per
// nesting of b under a, each with its own predicate-filtered list.
const multiRegionView = `for $x in fn:doc(r.xml)/r//a where $x//b = 'xml' return <o>{$x//b}, {$x/c}</o>`

var multiRegionDocs = []string{
	`<r><a><b>xml</b><c>1</c><a><b>xml</b><d><b>xml</b></d></a></a><a><d><b>search</b></d><b>xml</b></a></r>`,
	`<r><a><d><b>xml</b></d><c>2</c></a><a><a><a><b>xml</b></a><b>1</b></a><c>3</c></a><a><b>search</b></a></r>`,
}

// TestPooledPrepareKeepsEveryRegion: the pooled entry appends the filtered
// postings of every full data path a predicate expands to into one scratch
// slab, one region per path. Through one warm generator over two different
// documents, each PDT equals the one fresh PrepareLists and Generate build,
// and the first is unchanged by the second run: every region survives the
// lookups after it, and none reaches a returned PDT.
func TestPooledPrepareKeepsEveryRegion(t *testing.T) {
	q := viewQPTs(t, multiRegionView)[0]
	g := &generator{}
	var first *PDT
	var firstTree string
	for i, text := range multiRegionDocs {
		doc := parseDoc(t, text, "r.xml", int32(i+1))
		pix := pathindex.Build(doc)
		fresh := PrepareLists(q, pix, invindex.Build(doc), nil)
		regions := 0
		for _, pl := range fresh.Paths {
			if len(pl.QNode.Preds) > 0 {
				regions++
			}
		}
		if regions < 2 {
			t.Fatalf("document %d: %d predicate-filtered lists, want several", i, regions)
		}
		want := Generate(q, fresh, doc.Name)
		got := g.fromIndex(q, pix, doc.Name, new(Arena))
		if render(got) != render(want) || got.Nodes != want.Nodes || got.Bytes != want.Bytes {
			t.Fatalf("document %d: pooled PDT\n%s want\n%s", i, render(got), render(want))
		}
		if i == 0 {
			first, firstTree = got, render(got)
		}
	}
	if render(first) != firstTree {
		t.Fatalf("the first PDT changed under the second run:\n%s was\n%s", render(first), firstTree)
	}
}

// TestResetDropsPreparedLists: after a run, the prepared lists' scratch —
// PathLists, lookup results, filtered postings and keyword lists — holds
// no non-zero entry anywhere in its capacity, so a pooled generator never
// keeps a replaced document's index alive.
func TestResetDropsPreparedLists(t *testing.T) {
	q := viewQPTs(t, multiRegionView)[0]
	g := &generator{}
	for i, text := range multiRegionDocs {
		doc := parseDoc(t, text, "r.xml", int32(i+1))
		if p := g.fromIndex(q, pathindex.Build(doc), doc.Name, new(Arena)); p.Nodes == 0 {
			t.Fatalf("document %d: empty PDT", i)
		}
		m := &g.prepared
		if cap(m.Paths) == 0 || cap(m.lookup.Postings) == 0 {
			t.Fatalf("document %d: no scratch kept (%d PathLists, %d postings)", i, cap(m.Paths), cap(m.lookup.Postings))
		}
		mustBeZero(t, "PathList", m.Paths[:cap(m.Paths)])
		mustBeZero(t, "PathPostings", m.found[:cap(m.found)])
		mustBeZero(t, "posting", m.lookup.Postings[:cap(m.lookup.Postings)])
		mustBeZero(t, "keyword list", m.Inv[:cap(m.Inv)])
		if g.lists != nil || m.Keywords != nil {
			t.Fatalf("document %d: the generator still holds its lists", i)
		}
	}
}

func mustBeZero[T any](t *testing.T, what string, entries []T) {
	t.Helper()
	for k := range entries {
		if !reflect.ValueOf(&entries[k]).Elem().IsZero() {
			t.Fatalf("%s %d of %d survives reset: %+v", what, k, len(entries), entries[k])
		}
	}
}

// TestGenerateIntoReusesArena runs documents of growing, shrinking and no
// PDT through one arena. Each PDT equals a fresh GenerateFromIndex's and
// is the arena's memory. Once the arena has grown to the largest,
// generating into it allocates nothing. Clear zeroes everything in the slabs' capacity and both
// headers, so a cleared arena keeps no document's index alive.
func TestGenerateIntoReusesArena(t *testing.T) {
	q := viewQPTs(t, multiRegionView)[0]
	texts := append([]string{`<r><x><b>xml</b></x></r>`}, multiRegionDocs...)
	texts = append(texts, multiRegionDocs[0])
	a := new(Arena)
	g := &generator{}
	for i, text := range texts {
		doc := parseDoc(t, text, "r.xml", int32(i+1))
		pix := pathindex.Build(doc)
		want := GenerateFromIndex(q, pix, doc.Name)
		got := g.fromIndex(q, pix, doc.Name, a)
		if render(got) != render(want) || got.Nodes != want.Nodes || got.Bytes != want.Bytes || (got.Doc == nil) != (want.Doc == nil) {
			t.Fatalf("document %d: arena PDT\n%s want\n%s", i, render(got), render(want))
		}
		if i == 0 && got.Doc != nil {
			t.Fatalf("document 0 has no <a>, yet its PDT is\n%s", render(got))
		}
		if len(a.nodes) != got.Nodes || got != &a.pdt || (got.Doc != nil && (got.Doc != &a.doc || got.Doc.Root != &a.nodes[0])) {
			t.Fatalf("document %d: the PDT of %d nodes is not the arena's %d", i, got.Nodes, len(a.nodes))
		}
		if i == len(texts)-1 {
			if n := testing.AllocsPerRun(20, func() { g.fromIndex(q, pix, doc.Name, a) }); n != 0 {
				t.Errorf("generating into a warm arena allocates %v objects", n)
			}
		}
	}
	if a.Cap() == 0 || cap(a.kids) == 0 {
		t.Fatal("the arena kept no slab")
	}
	a.Clear()
	mustBeZero(t, "node", a.nodes[:cap(a.nodes)])
	mustBeZero(t, "child pointer", a.kids[:cap(a.kids)])
	mustBeZero(t, "header", []PDT{a.pdt})
	mustBeZero(t, "document", []xmltree.Document{a.doc})
	if len(a.nodes) != 0 {
		t.Fatalf("a cleared arena holds %d nodes", len(a.nodes))
	}
}

// TestSeveralTopLevelElements: a QPT whose first edge is '//x' emits every
// x that no other x contains, with no common emitted ancestor. The PDT
// keeps them all, in document order, under one top node no step matches.
func TestSeveralTopLevelElements(t *testing.T) {
	doc := parseDoc(t, `<r><s><x>1</x></s><x>2<x>3</x></x><y/><x>4</x></r>`, "d.xml", 1)
	qpts := viewQPTs(t, `for $d in fn:doc(d.xml) return <n>{$d//x}</n>`)
	pd := generateFor(t, doc, qpts[0], nil)
	root := pd.Doc.Root
	if root.Tag != topTag || len(root.Children) != 3 || pd.Nodes != 4 {
		t.Fatalf("root <%s> has %d children, %d nodes: want <%s> over the three outermost x of four", root.Tag, len(root.Children), pd.Nodes, topTag)
	}
	var xs []*xmltree.Node
	doc.Root.Walk(func(n *xmltree.Node) {
		if n.Tag == "x" {
			xs = append(xs, n)
		}
	})
	for i, want := range []*xmltree.Node{xs[0], xs[1], xs[3]} {
		if x := root.Children[i]; x.Tag != "x" || fmt.Sprint(x.ID) != fmt.Sprint(want.ID) {
			t.Errorf("top-level element %d is <%s> %v, want <x> %v", i, x.Tag, x.ID, want.ID)
		}
	}
	if inner := root.Children[1].Children; len(inner) != 1 || fmt.Sprint(inner[0].ID) != fmt.Sprint(xs[2].ID) {
		t.Errorf("the second x should keep its nested x, has %v", inner)
	}
}
