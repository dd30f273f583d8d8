package scoring

import (
	"math"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/store"
	"vxml/internal/xmltree"
)

// buildResult constructs a view result: a constructed wrapper referencing
// two pruned PDT elements with Meta payloads.
func buildPDTResult(tfs1, tfs2 []int, len1, len2 int) *xmltree.Node {
	wrapper := xmltree.NewElement("res")
	a := &xmltree.Node{Tag: "title", ID: dewey.MustParse("1.1.1"), ByteLen: len1,
		Meta: &xmltree.NodeMeta{TFs: tfs1}}
	b := &xmltree.Node{Tag: "content", ID: dewey.MustParse("2.1.2"), ByteLen: len2,
		Meta: &xmltree.NodeMeta{TFs: tfs2}}
	wrapper.Children = append(wrapper.Children, a, b)
	return wrapper
}

func TestCollectFromPDT(t *testing.T) {
	res := buildPDTResult([]int{2, 0}, []int{1, 3}, 100, 50)
	st := Collect(res, []string{"xml", "search"}, FromPDT)
	if st.TFs[0] != 3 || st.TFs[1] != 3 {
		t.Errorf("TFs = %v", st.TFs)
	}
	if st.ByteLen != 150 {
		t.Errorf("ByteLen = %d", st.ByteLen)
	}
}

func TestCollectSkipsNestedMeta(t *testing.T) {
	// A Meta node's payload covers its whole subtree: nested Meta children
	// must not double count.
	outer := &xmltree.Node{Tag: "book", ID: dewey.MustParse("1.1"), ByteLen: 200,
		Meta: &xmltree.NodeMeta{TFs: []int{5}}}
	inner := &xmltree.Node{Tag: "title", ID: dewey.MustParse("1.1.1"), ByteLen: 50,
		Meta: &xmltree.NodeMeta{TFs: []int{2}}}
	outer.Children = append(outer.Children, inner)
	st := Collect(outer, []string{"xml"}, FromPDT)
	if st.TFs[0] != 5 || st.ByteLen != 200 {
		t.Errorf("nested Meta double counted: %+v", st)
	}
}

func TestCollectFromBase(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a>xml search xml</a></r>`, "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	wrapper := xmltree.NewElement("res")
	wrapper.Children = append(wrapper.Children, doc.Root.Children[0])
	st := Collect(wrapper, []string{"xml", "search"}, FromBase)
	if st.TFs[0] != 2 || st.TFs[1] != 1 {
		t.Errorf("TFs = %v", st.TFs)
	}
	if st.ByteLen != doc.Root.Children[0].ByteLen {
		t.Errorf("ByteLen = %d", st.ByteLen)
	}
}

func TestRankConjunctiveFiltersAndOrders(t *testing.T) {
	results := []*xmltree.Node{
		buildPDTResult([]int{1, 1}, []int{0, 0}, 100, 100), // both keywords
		buildPDTResult([]int{4, 0}, []int{0, 0}, 100, 100), // missing kw2
		buildPDTResult([]int{5, 5}, []int{0, 0}, 100, 100), // both, higher tf
	}
	r := Rank(results, []string{"a", "b"}, true, 0, FromPDT)
	if r.ViewSize != 3 || r.Matched != 2 {
		t.Fatalf("ViewSize=%d Matched=%d", r.ViewSize, r.Matched)
	}
	if len(r.Results) != 2 {
		t.Fatalf("results = %d", len(r.Results))
	}
	if r.Results[0].Index != 2 || r.Results[1].Index != 0 {
		t.Errorf("order = %d, %d", r.Results[0].Index, r.Results[1].Index)
	}
	if r.Results[0].Score <= r.Results[1].Score {
		t.Errorf("scores not descending: %f, %f", r.Results[0].Score, r.Results[1].Score)
	}
}

func TestRankDisjunctive(t *testing.T) {
	results := []*xmltree.Node{
		buildPDTResult([]int{1, 0}, []int{0, 0}, 10, 10),
		buildPDTResult([]int{0, 0}, []int{0, 0}, 10, 10),
	}
	r := Rank(results, []string{"a", "b"}, false, 0, FromPDT)
	if len(r.Results) != 1 {
		t.Errorf("disjunctive results = %d", len(r.Results))
	}
}

func TestRankIDF(t *testing.T) {
	// keyword "a": in 2 of 4 results -> idf 2; "b": in 1 of 4 -> idf 4.
	results := []*xmltree.Node{
		buildPDTResult([]int{1, 1}, []int{0, 0}, 10, 10),
		buildPDTResult([]int{1, 0}, []int{0, 0}, 10, 10),
		buildPDTResult([]int{0, 0}, []int{0, 0}, 10, 10),
		buildPDTResult([]int{0, 0}, []int{0, 0}, 10, 10),
	}
	r := Rank(results, []string{"a", "b"}, false, 0, FromPDT)
	if r.IDFs[0] != 2 || r.IDFs[1] != 4 {
		t.Errorf("IDFs = %v", r.IDFs)
	}
	// score of result 0 = (1*2 + 1*4) / log2(2+20)
	want := 6.0 / math.Log2(22)
	if math.Abs(r.Results[0].Score-want) > 1e-12 {
		t.Errorf("score = %f, want %f", r.Results[0].Score, want)
	}
}

func TestRankMissingKeywordIDFZero(t *testing.T) {
	results := []*xmltree.Node{buildPDTResult([]int{1, 0}, []int{0, 0}, 10, 10)}
	r := Rank(results, []string{"a", "zz"}, false, 0, FromPDT)
	if r.IDFs[1] != 0 {
		t.Errorf("idf of absent keyword = %f", r.IDFs[1])
	}
	if len(r.Results) != 1 || math.IsNaN(r.Results[0].Score) || math.IsInf(r.Results[0].Score, 0) {
		t.Errorf("score not finite: %+v", r.Results)
	}
}

func TestRankTopK(t *testing.T) {
	var results []*xmltree.Node
	for i := 1; i <= 10; i++ {
		results = append(results, buildPDTResult([]int{i}, []int{0}, 10, 10))
	}
	r := Rank(results, []string{"a"}, true, 3, FromPDT)
	if len(r.Results) != 3 {
		t.Fatalf("top-3 = %d", len(r.Results))
	}
	if r.Results[0].Index != 9 {
		t.Errorf("best = %d", r.Results[0].Index)
	}
}

func TestRankTieBreakByViewOrder(t *testing.T) {
	results := []*xmltree.Node{
		buildPDTResult([]int{1}, []int{0}, 10, 10),
		buildPDTResult([]int{1}, []int{0}, 10, 10),
	}
	r := Rank(results, []string{"a"}, true, 0, FromPDT)
	if r.Results[0].Index != 0 || r.Results[1].Index != 1 {
		t.Errorf("tie order = %d, %d", r.Results[0].Index, r.Results[1].Index)
	}
}

func TestRankEmptyKeywords(t *testing.T) {
	results := []*xmltree.Node{buildPDTResult(nil, nil, 10, 10)}
	r := Rank(results, nil, true, 0, FromPDT)
	if len(r.Results) != 1 {
		t.Errorf("no-keyword rank = %d results", len(r.Results))
	}
}

// materializeBook stores one book document and materializes a pruned view
// result over it: a constructed wrapper around a 'c' element standing for
// the book.
func materializeBook(t *testing.T) (st *store.Store, full *xmltree.Node) {
	t.Helper()
	st = store.New()
	if _, err := st.AddXML("books.xml",
		`<books><book><title>XML Web Services</title><year>2004</year></book></books>`); err != nil {
		t.Fatal(err)
	}
	wrapper := xmltree.NewElement("res")
	pruned := &xmltree.Node{Tag: "book", ID: dewey.MustParse("1.1"), ByteLen: 10, Meta: xmltree.ContentMark}
	wrapper.Children = append(wrapper.Children, pruned)
	return st, Materialize(wrapper, st)
}

func TestMaterialize(t *testing.T) {
	st, full := materializeBook(t)
	out := full.XMLString("")
	if out != "<res><book><title>XML Web Services</title><year>2004</year></book></res>" {
		t.Errorf("materialized = %s", out)
	}
	if st.SubtreeFetches() != 1 {
		t.Errorf("fetches = %d", st.SubtreeFetches())
	}
}

// TestMaterializeSharesBaseSubtrees: a winner's content is the store's own
// base subtree, not a copy; only the constructed wrapper is new.
func TestMaterializeSharesBaseSubtrees(t *testing.T) {
	st, full := materializeBook(t)
	base := st.Doc("books.xml").Root.Children[0]
	if full.Children[0] != base {
		t.Error("Materialize copied the base subtree instead of sharing it")
	}
	if full == base || full.Tag != "res" {
		t.Errorf("wrapper = %+v, want a new <res>", full)
	}
}
