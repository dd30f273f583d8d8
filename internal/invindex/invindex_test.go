package invindex

import (
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"vxml/internal/dewey"
	"vxml/internal/xmltree"
)

const reviewsXML = `<reviews>
  <review><isbn>111</isbn><content>all about XML search and XML views</content></review>
  <review><isbn>222</isbn><content>easy to read</content></review>
  <review><isbn>333</isbn><content>search engines explained</content></review>
</reviews>`

func buildReviews(t *testing.T) (*xmltree.Document, *Index) {
	t.Helper()
	doc, err := xmltree.ParseString(reviewsXML, "reviews.xml", 2)
	if err != nil {
		t.Fatal(err)
	}
	return doc, Build(doc)
}

func TestLookupDirectPostings(t *testing.T) {
	_, ix := buildReviews(t)
	pl := ix.Lookup("xml")
	if pl.Len() != 1 {
		t.Fatalf("xml postings = %d", pl.Len())
	}
	p := pl.Postings[0]
	if p.ID.String() != "2.1.2" || p.TF != 2 {
		t.Errorf("posting = %+v", p)
	}
}

func TestLookupMissingKeyword(t *testing.T) {
	_, ix := buildReviews(t)
	pl := ix.Lookup("quantum")
	if pl.Len() != 0 || pl.TotalTF() != 0 {
		t.Errorf("missing keyword: %+v", pl)
	}
	if pl.SubtreeTF(dewey.MustParse("2")) != 0 {
		t.Error("SubtreeTF of empty list should be 0")
	}
}

// storedLists serves resident lists through the Stored seam, so a test can
// build a view index without the disk backend.
type storedLists []*PostingList

func (s storedLists) Keywords() int               { return len(s) }
func (s storedLists) Keyword(slot int) string     { return s[slot].Keyword }
func (s storedLists) Postings(slot int) []Posting { return s[slot].Postings }

// TestLookupMissAllocatesNothing: a keyword the document lacks is answered
// with one shared empty list, on a resident index and on a view alike, so
// the per-candidate misses of a collection search cost no allocation.
func TestLookupMissAllocatesNothing(t *testing.T) {
	_, resident := buildReviews(t)
	var lookups atomic.Int64
	view := NewView(resident.Elements(), storedLists(resident.Lists()), &lookups)
	for name, ix := range map[string]*Index{"resident": resident, "view": view} {
		if allocs := testing.AllocsPerRun(100, func() { ix.Lookup("quantum") }); allocs != 0 {
			t.Errorf("%s: a missing keyword costs %.1f allocations per lookup, want 0", name, allocs)
		}
		if pl := ix.Lookup("quantum"); pl.Len() != 0 || pl.TotalTF() != 0 || pl.SubtreeTF(dewey.MustParse("2")) != 0 {
			t.Errorf("%s: missing keyword: %+v", name, pl)
		}
	}
}

func TestSubtreeTFAggregation(t *testing.T) {
	doc, ix := buildReviews(t)
	pl := ix.Lookup("search")
	// whole document subtree
	if got := pl.SubtreeTF(doc.Root.ID); got != 2 {
		t.Errorf("SubtreeTF(root) = %d", got)
	}
	// first review only
	if got := pl.SubtreeTF(dewey.MustParse("2.1")); got != 1 {
		t.Errorf("SubtreeTF(2.1) = %d", got)
	}
	// second review has none
	if got := pl.SubtreeTF(dewey.MustParse("2.2")); got != 0 {
		t.Errorf("SubtreeTF(2.2) = %d", got)
	}
	// contains(e, k) is SubtreeTF > 0: review 2 has 'read', review 1 not.
	read := ix.Lookup("read")
	if read.SubtreeTF(dewey.MustParse("2.2")) == 0 || read.SubtreeTF(dewey.MustParse("2.1")) != 0 {
		t.Error("only review 2 contains 'read'")
	}
}

func TestDirectTF(t *testing.T) {
	_, ix := buildReviews(t)
	pl := ix.Lookup("xml")
	if pl.DirectTF(dewey.MustParse("2.1.2")) != 2 {
		t.Error("DirectTF(content) should be 2")
	}
	if pl.DirectTF(dewey.MustParse("2.1")) != 0 {
		t.Error("review element does not directly contain 'xml'")
	}
}

func TestCountsAndStats(t *testing.T) {
	_, ix := buildReviews(t)
	if ix.Elements() != 10 {
		t.Errorf("Elements = %d", ix.Elements())
	}
	if ix.Keywords() == 0 {
		t.Error("no keywords indexed")
	}
	before := ix.Lookups()
	ix.Lookup("xml")
	if ix.Lookups() != before+1 {
		t.Error("Lookups not counted")
	}
	if got := ix.Lookup("xml").TotalTF(); got != 2 {
		t.Errorf("TotalTF(xml) = %d", got)
	}
}

// randomDoc builds a random doc with a small vocabulary for property tests.
func randomDoc(r *rand.Rand) *xmltree.Document {
	words := []string{"xml", "search", "view", "data"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		n := xmltree.NewElement([]string{"a", "b"}[r.Intn(2)])
		if depth <= 0 || r.Intn(3) == 0 {
			k := r.Intn(4)
			for i := 0; i < k; i++ {
				if n.Value != "" {
					n.Value += " "
				}
				n.Value += words[r.Intn(len(words))]
			}
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

// TestQuickSubtreeTFEqualsWalk: index aggregation equals a naive subtree
// token count for random documents, keywords and elements.
func TestQuickSubtreeTFEqualsWalk(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r)
		ix := Build(doc)
		kw := []string{"xml", "search", "view", "data"}[r.Intn(4)]
		pl := ix.Lookup(kw)
		ok := true
		doc.Root.Walk(func(n *xmltree.Node) {
			want := xmltree.SubtreeTF(n, []string{kw})[0]
			if pl.SubtreeTF(n.ID) != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickPostingsSortedWithPrefixSums: postings are in Dewey order and
// prefix sums are consistent.
func TestQuickPostingsSortedWithPrefixSums(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := randomDoc(r)
		ix := Build(doc)
		for _, kw := range []string{"xml", "search", "view", "data"} {
			pl := ix.Lookup(kw)
			sum := 0
			for i, p := range pl.Postings {
				if i > 0 && dewey.Compare(pl.Postings[i-1].ID, p.ID) >= 0 {
					return false
				}
				if pl.tfPrefix[i] != sum {
					return false
				}
				sum += p.TF
			}
			if pl.TotalTF() != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRangeBoundsMatchesTwoBinarySearches: the galloped upper bound is the
// one a second binary search over the whole list finds, for random lists
// and IDs — present and absent, the first and last posting, and ancestors
// of everything (the document root and the virtual root).
func TestRangeBoundsMatchesTwoBinarySearches(t *testing.T) {
	reference := func(pl *PostingList, id dewey.ID) (int, int) {
		lo := sort.Search(len(pl.Postings), func(i int) bool { return dewey.Compare(pl.Postings[i].ID, id) >= 0 })
		hi := sort.Search(len(pl.Postings), func(i int) bool { return dewey.Compare(pl.Postings[i].ID, id.Successor()) >= 0 })
		return lo, hi
	}
	r := rand.New(rand.NewSource(19))
	randomID := func() dewey.ID {
		id := dewey.ID{1}
		for d, n := 0, r.Intn(5); d < n; d++ {
			id = append(id, int32(1+r.Intn(4)))
		}
		return id
	}
	for trial := 0; trial < 300; trial++ {
		pl := &PostingList{Keyword: "k"}
		for i, n := 0, r.Intn(60); i < n; i++ { // n == 0: the empty list
			pl.Postings = append(pl.Postings, Posting{ID: randomID(), TF: 1 + r.Intn(3)})
		}
		slices.SortFunc(pl.Postings, func(a, b Posting) int { return dewey.Compare(a.ID, b.ID) })
		pl.Postings = slices.CompactFunc(pl.Postings, func(a, b Posting) bool { return dewey.Equal(a.ID, b.ID) })
		pl.buildPrefix()
		probes := []dewey.ID{{}, {1}, {2}}
		if n := len(pl.Postings); n > 0 {
			probes = append(probes, pl.Postings[0].ID, pl.Postings[n-1].ID)
		}
		for i := 0; i < 40; i++ {
			probes = append(probes, randomID())
		}
		for _, id := range probes {
			lo, hi := pl.rangeBounds(id)
			wantLo, wantHi := reference(pl, id)
			if lo != wantLo || hi != wantHi {
				t.Fatalf("trial %d: rangeBounds(%s) = [%d, %d), want [%d, %d) over %d postings", trial, id, lo, hi, wantLo, wantHi, len(pl.Postings))
			}
			want := 0
			for _, p := range pl.Postings[wantLo:wantHi] {
				want += p.TF
			}
			if got := pl.SubtreeTF(id); got != want {
				t.Fatalf("trial %d: SubtreeTF(%s) = %d, want %d", trial, id, got, want)
			}
		}
	}
}
