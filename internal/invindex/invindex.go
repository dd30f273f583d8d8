// Package invindex implements XML inverted-list indices (paper §3.2,
// Figure 4b): for each keyword, the Dewey-ordered list of elements that
// directly contain the keyword, with its term frequency there.
//
// Because IDs are Dewey IDs, the aggregate term frequency of a keyword in
// an element's whole subtree is the sum of tf over the ID range
// [id, id.Successor()), which the posting list answers in O(log n) with a
// prefix-sum array — this is how PDT generation obtains tf values for 'c'
// nodes without touching base data.
package invindex

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"vxml/internal/dewey"
	"vxml/internal/intern"
	"vxml/internal/xmltree"
)

// Posting records that one element directly contains a keyword TF times.
type Posting struct {
	ID dewey.ID
	TF int
}

// PostingList is the Dewey-ordered list of postings for one keyword.
type PostingList struct {
	Keyword  string
	Postings []Posting
	tfPrefix []int // tfPrefix[i] = sum of TF of Postings[:i]
}

// Index is the inverted index of a single document: a sorted keyword
// directory and, per directory slot, that keyword's posting list — held
// resident when the index was built from a tree, decoded from the stored
// record on every lookup when it is a view over one (NewView). Once built it
// is immutable apart from the atomic lookup counter, so concurrent searches
// may probe it freely.
type Index struct {
	keywords []string       // Build's directory: sorted; slot i names resident[i]
	resident []*PostingList // one per slot; nil for a view
	stored   Stored         // a view's directory and lists; nil when resident
	elements int            // number of elements in the document
	lookups  *atomic.Int64  // keyword lookups served: the index's own, or a view's shared counter
}

// Stored is a view's keyword directory and lists in their stored form:
// Keywords slots, Keyword the slot's keyword (ascending in slot order), and
// Postings the slot's Dewey-sorted list, decoded on each call. It must be
// safe for concurrent use.
type Stored interface {
	Keywords() int
	Keyword(slot int) string
	Postings(slot int) []Posting
}

// Lookups returns the number of keyword lookups served. Safe to call
// concurrently with reads. An index given a counter (NewView, CountInto)
// reports that counter, shared with whatever other indices it was given
// to.
func (ix *Index) Lookups() int { return int(ix.lookups.Load()) }

// CountInto points the index's lookup counter at lookups, which the caller
// may share between indices, as NewView's is: a count kept outside the
// index survives the index being dropped. Call it while the index is
// still private — before it serves a lookup or is shared.
func (ix *Index) CountInto(lookups *atomic.Int64) { ix.lookups = lookups }

// Build constructs the inverted index for doc in one walk. The walk is in
// document order, so each list's postings arrive already Dewey-sorted and a
// token of the current element always extends the list's last posting —
// which is what lets the builder stream tokens straight into the lists with
// one document-level map instead of allocating per-element scratch.
func Build(doc *xmltree.Document) *Index {
	ix := &Index{lookups: new(atomic.Int64)}
	lists := map[string]*PostingList{}
	var curID dewey.ID
	add := func(tok string) bool {
		pl := lists[tok]
		if pl == nil {
			// First sight of the word in this document: intern it so every
			// document (and every shard) retains one canonical copy of the
			// corpus vocabulary.
			kw := intern.String(tok)
			pl = &PostingList{Keyword: kw}
			lists[kw] = pl
		}
		if k := len(pl.Postings) - 1; k >= 0 && dewey.Equal(pl.Postings[k].ID, curID) {
			pl.Postings[k].TF++
		} else {
			pl.Postings = append(pl.Postings, Posting{ID: curID, TF: 1})
		}
		return true
	}
	doc.Root.Walk(func(n *xmltree.Node) {
		ix.elements++
		if n.Value == "" {
			return
		}
		curID = n.ID
		xmltree.VisitTokens(n.Value, add)
	})
	ix.keywords = make([]string, 0, len(lists))
	for kw := range lists {
		ix.keywords = append(ix.keywords, kw)
	}
	slices.Sort(ix.keywords)
	ix.resident = make([]*PostingList, len(ix.keywords))
	for i, kw := range ix.keywords {
		pl := lists[kw]
		pl.buildPrefix()
		ix.resident[i] = pl
	}
	return ix
}

// NewView returns an index over lists that stay in their stored form: the
// keyword directory is binary-searched where it is stored, and a slot's
// postings are decoded each time its keyword is looked up. Nothing decoded
// is kept: the view's footprint is the stored form's. Its lookups are added
// to lookups, which the caller may share between views: a count kept
// outside the view survives the view being dropped.
func NewView(elements int, stored Stored, lookups *atomic.Int64) *Index {
	return &Index{stored: stored, elements: elements, lookups: lookups}
}

func (pl *PostingList) buildPrefix() {
	pl.tfPrefix = make([]int, len(pl.Postings)+1)
	for i, p := range pl.Postings {
		pl.tfPrefix[i+1] = pl.tfPrefix[i] + p.TF
	}
}

// missing is the list Lookup returns for every keyword a document lacks:
// one shared read-only value, so a miss allocates nothing.
var missing = &PostingList{tfPrefix: []int{0}}

// Lookup returns the posting list for keyword (lowercase), found by binary
// search of the directory, or a shared read-only empty list (whose Keyword
// is "") if the keyword does not occur.
func (ix *Index) Lookup(keyword string) *PostingList {
	ix.lookups.Add(1)
	if ix.stored == nil {
		if slot, ok := slices.BinarySearch(ix.keywords, keyword); ok {
			return ix.resident[slot]
		}
	} else if slot, ok := sort.Find(ix.stored.Keywords(), func(i int) int {
		return strings.Compare(keyword, ix.stored.Keyword(i))
	}); ok {
		return ix.list(slot)
	}
	return missing
}

// list returns the posting list of a directory slot.
func (ix *Index) list(slot int) *PostingList {
	if ix.stored == nil {
		return ix.resident[slot]
	}
	pl := &PostingList{Keyword: ix.stored.Keyword(slot), Postings: ix.stored.Postings(slot)}
	pl.buildPrefix()
	return pl
}

// Keywords returns the number of distinct keywords indexed.
func (ix *Index) Keywords() int {
	if ix.stored == nil {
		return len(ix.keywords)
	}
	return ix.stored.Keywords()
}

// Elements returns the number of elements in the indexed document.
func (ix *Index) Elements() int { return ix.elements }

// Len returns the number of postings (elements directly containing the
// keyword) — the document frequency at element granularity.
func (pl *PostingList) Len() int { return len(pl.Postings) }

// TotalTF returns the total occurrences of the keyword in the document.
func (pl *PostingList) TotalTF() int {
	if len(pl.tfPrefix) == 0 {
		return 0
	}
	return pl.tfPrefix[len(pl.tfPrefix)-1]
}

// rangeBounds returns the posting index range covering the subtree of id.
// The upper bound compares against id's successor without materializing it
// (dewey.CompareToSuccessor), keeping the probe allocation-free — it runs
// once per result element per keyword at collect. The lower bound is a
// binary search; the upper bound gallops from it, because one element's
// subtree covers a handful of postings of a list that spans the document:
// an element without the keyword costs one comparison past lo, and a range
// of r postings O(log r), not a second search of the whole list.
func (pl *PostingList) rangeBounds(id dewey.ID) (lo, hi int) {
	n := len(pl.Postings)
	if n == 0 {
		return 0, 0
	}
	lo = sort.Search(n, func(i int) bool {
		return dewey.Compare(pl.Postings[i].ID, id) >= 0
	})
	// Invariant: every posting in [lo, inside) is below the successor.
	inside, probe := lo, lo
	for step := 1; probe < n && dewey.CompareToSuccessor(pl.Postings[probe].ID, id) < 0; step <<= 1 {
		inside = probe + 1
		probe += step
	}
	probe = min(probe, n)
	hi = inside + sort.Search(probe-inside, func(i int) bool {
		return dewey.CompareToSuccessor(pl.Postings[inside+i].ID, id) >= 0
	})
	return lo, hi
}

// SubtreeTF returns the aggregate term frequency of the keyword within the
// subtree rooted at id (the paper's tf(e, k)).
func (pl *PostingList) SubtreeTF(id dewey.ID) int {
	lo, hi := pl.rangeBounds(id)
	return pl.tfPrefix[hi] - pl.tfPrefix[lo]
}

// Lists returns every posting list in keyword order — the serialization
// seam the disk backend encodes indices through. A resident index returns
// its own lists (read-only); a view decodes each of its lists.
func (ix *Index) Lists() []*PostingList {
	lists := make([]*PostingList, ix.Keywords())
	for slot := range lists {
		lists[slot] = ix.list(slot)
	}
	return lists
}

// DirectTF returns the term frequency of the keyword directly inside the
// element with the given ID (0 if absent).
func (pl *PostingList) DirectTF(id dewey.ID) int {
	i := sort.Search(len(pl.Postings), func(i int) bool {
		return dewey.Compare(pl.Postings[i].ID, id) >= 0
	})
	if i < len(pl.Postings) && dewey.Equal(pl.Postings[i].ID, id) {
		return pl.Postings[i].TF
	}
	return 0
}
