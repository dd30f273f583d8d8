// Package invindex implements XML inverted-list indices (paper §3.2,
// Figure 4b): for each keyword, the Dewey-ordered list of elements that
// directly contain the keyword, with term frequency and word positions.
//
// Because IDs are Dewey IDs, the aggregate term frequency of a keyword in
// an element's whole subtree is the sum of tf over the ID range
// [id, id.Successor()), which the posting list answers in O(log n) with a
// prefix-sum array — this is how PDT generation obtains tf values for 'c'
// nodes without touching base data.
package invindex

import (
	"sort"
	"sync/atomic"

	"vxml/internal/btree"
	"vxml/internal/dewey"
	"vxml/internal/intern"
	"vxml/internal/xmltree"
)

// Posting records that one element directly contains a keyword TF times at
// the given word offsets of its text content.
type Posting struct {
	ID        dewey.ID
	TF        int
	Positions []int32
}

// PostingList is the Dewey-ordered list of postings for one keyword.
type PostingList struct {
	Keyword  string
	Postings []Posting
	tfPrefix []int // tfPrefix[i] = sum of TF of Postings[:i]
}

// Index is the inverted index of a single document. Once built it is
// immutable apart from the atomic lookup counter, so concurrent searches
// may probe it freely.
type Index struct {
	dict     *btree.Tree  // keyword -> *PostingList
	elements int          // number of elements in the document
	lookups  atomic.Int64 // number of keyword lookups served
}

// Lookups returns the number of keyword lookups served. Safe to call
// concurrently with reads.
func (ix *Index) Lookups() int { return int(ix.lookups.Load()) }

// Build constructs the inverted index for doc in one walk. The walk is in
// document order, so each list's postings arrive already Dewey-sorted and a
// token of the current element always extends the list's last posting —
// which is what lets the builder stream tokens straight into the lists with
// one document-level map instead of allocating per-element scratch.
func Build(doc *xmltree.Document) *Index {
	ix := &Index{dict: btree.New()}
	lists := map[string]*PostingList{}
	var curID dewey.ID
	var pos int32
	// Position slices are carved from chunked arenas: most postings hold a
	// single position, and a full-capacity subslice keeps the rare multi-
	// occurrence append from bleeding into a neighbor (it reallocates).
	var posChunk []int32
	newPositions := func(p int32) []int32 {
		if len(posChunk) == cap(posChunk) {
			posChunk = make([]int32, 0, 1024)
		}
		posChunk = append(posChunk, p)
		return posChunk[len(posChunk)-1 : len(posChunk) : len(posChunk)]
	}
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
			p := &pl.Postings[k]
			p.TF++
			p.Positions = append(p.Positions, pos)
		} else {
			pl.Postings = append(pl.Postings, Posting{ID: curID, TF: 1, Positions: newPositions(pos)})
		}
		pos++
		return true
	}
	doc.Root.Walk(func(n *xmltree.Node) {
		ix.elements++
		if n.Value == "" {
			return
		}
		curID, pos = n.ID, 0
		xmltree.VisitTokens(n.Value, add)
	})
	for kw, pl := range lists {
		pl.buildPrefix()
		ix.dict.Put([]byte(kw), pl)
	}
	return ix
}

func (pl *PostingList) buildPrefix() {
	pl.tfPrefix = make([]int, len(pl.Postings)+1)
	for i, p := range pl.Postings {
		pl.tfPrefix[i+1] = pl.tfPrefix[i] + p.TF
	}
}

// Lookup returns the posting list for keyword (lowercase), or an empty list
// if the keyword does not occur.
func (ix *Index) Lookup(keyword string) *PostingList {
	ix.lookups.Add(1)
	if v, ok := ix.dict.Get([]byte(keyword)); ok {
		return v.(*PostingList)
	}
	return &PostingList{Keyword: keyword, tfPrefix: []int{0}}
}

// Keywords returns the number of distinct keywords indexed.
func (ix *Index) Keywords() int { return ix.dict.Len() }

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

// ContainsSubtree reports whether the subtree rooted at id contains the
// keyword (the paper's contains(e, k), answered from the index alone).
func (pl *PostingList) ContainsSubtree(id dewey.ID) bool {
	lo, hi := pl.rangeBounds(id)
	return hi > lo
}

// Lists snapshots every posting list in keyword order. The lists are the
// index's own — callers must treat them as read-only. Lists/FromLists are
// the serialization seam the disk backend stores indices through.
func (ix *Index) Lists() []*PostingList {
	lists := make([]*PostingList, 0, ix.dict.Len())
	for it := ix.dict.Min(); it.Valid(); it.Next() {
		lists = append(lists, it.Value().(*PostingList))
	}
	return lists
}

// FromLists rebuilds an index from per-keyword posting lists (keywords
// distinct, postings Dewey-sorted — the shape Lists produces) plus the
// indexed document's element count. Prefix sums are recomputed, so lists
// deserialized without them work. For any document,
// FromLists(Build(doc).Lists(), Build(doc).Elements()) answers every
// lookup identically to Build(doc).
func FromLists(lists []*PostingList, elements int) *Index {
	ix := &Index{dict: btree.New(), elements: elements}
	for _, pl := range lists {
		pl.Keyword = intern.String(pl.Keyword)
		pl.buildPrefix()
		ix.dict.Put([]byte(pl.Keyword), pl)
	}
	return ix
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
