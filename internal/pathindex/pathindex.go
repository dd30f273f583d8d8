// Package pathindex implements the Path-Values table of paper §3.2
// (Figure 5): for every root-to-element path and atomic value, the Dewey
// IDs of the elements on that path with that value.
//
// The table is held per full data path: a sorted directory of the
// document's distinct paths, each with its tags pre-split, its distinct
// leaf values in ascending order and one posting list in Dewey order whose
// postings carry their value. Queries follow the paper: a path query
// without predicates reads the path's list; a single equality with a
// non-numeric literal finds its (path, value) row by binary search over the
// path's values; other predicates are decided once per distinct value; a
// path with descendant axes is first expanded against the directory into
// the matching full data paths, each of which is probed separately.
//
// Build keeps the lists resident. NewView serves them from a stored form
// (the disk store's index record) that decodes one path's list per lookup
// and keeps nothing decoded.
//
// Each posting also carries its element's subtree byte length (needed by
// PDT generation for score normalization, §4.2.2.2), and a tag index
// (element IDs per tag) for the GTP baseline's structural joins is derived
// on first use.
package pathindex

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vxml/internal/dewey"
	"vxml/internal/intern"
	"vxml/internal/pred"
	"vxml/internal/xmltree"
)

// Axis is an XPath axis in a path pattern.
type Axis byte

// The two axes of the supported grammar.
const (
	Child      Axis = iota // '/'
	Descendant             // '//'
)

// String renders the axis as it appears in queries.
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Step is one step of a root-anchored path pattern: an axis followed by a
// tag name test.
type Step struct {
	Axis Axis
	Tag  string
}

// Any is the name test every tag passes: the pattern {Child, Any} is the
// document's root element, whatever its tag.
const Any = "*"

// matches reports whether tag passes the step's name test.
func (s Step) matches(tag string) bool { return s.Tag == tag || s.Tag == Any }

// FormatSteps renders a pattern like "/books//book/isbn".
func FormatSteps(steps []Step) string {
	var b strings.Builder
	for _, s := range steps {
		b.WriteString(s.Axis.String())
		b.WriteString(s.Tag)
	}
	return b.String()
}

// Posting is one element occurrence in the Path-Values table.
type Posting struct {
	ID       dewey.ID
	Value    string
	HasValue bool // false for non-leaf elements (the paper's null value)
	ByteLen  int
}

// PathPostings groups the postings of one full data path, in Dewey order.
// PDT generation needs the full path to map ID prefixes back to QPT nodes.
// Segs and, for a lookup without predicates on a built index, Postings are
// the index's own: callers must treat them as read-only.
type PathPostings struct {
	FullPath string   // e.g. "/books/book/isbn"
	Segs     []string // FullPath split into its tags
	Postings []Posting
}

// Lists is where an index's per-path data lives, addressed by directory
// slot: Build's resident lists, or a stored record (NewView). Values is the
// number of distinct leaf values on the path and Value the k-th of them in
// ascending (byte-wise) order. Postings returns the path's list in Dewey
// order. With keep nil that is all of it, and dst is not touched: resident
// lists return the list they keep (read-only), stored ones a fresh decode.
// Otherwise keep has one entry per value and Postings appends the postings
// whose value it marks (a posting without a value is never kept) to dst,
// returning the extended slice as append does: the kept postings are the
// result's tail from len(dst), and dst's earlier entries are left as they
// were. Anything a posting points to (its ID, its value) is not carved
// from dst, so it outlives dst's reuse. Implementations must be safe for
// concurrent use.
type Lists interface {
	Values(slot int) int
	Value(slot, k int) string
	Postings(slot int, keep []bool, dst []Posting) []Posting
}

// Index is the path index of a single document: the sorted path directory
// and its lists. Once built it is immutable apart from the atomic probe
// counter and the lazily derived tag index, so concurrent searches may probe
// it freely.
type Index struct {
	paths  []string      // sorted distinct full data paths, interned
	segs   [][]string    // aligned with paths: each split into its tags
	lists  Lists         // the lists, by directory slot
	probes *atomic.Int64 // full-path lookups served: the index's own, or a view's shared counter

	tagsOnce sync.Once
	tags     map[string][]Posting
}

// resident is Build's Lists: per slot, the postings, the sorted distinct
// values and each posting's value ordinal (-1 without a value; nil for a
// path with no values).
type resident struct {
	lists  [][]Posting
	values [][]string
	ords   [][]int32
}

func (r *resident) Values(slot int) int      { return len(r.values[slot]) }
func (r *resident) Value(slot, k int) string { return r.values[slot][k] }

func (r *resident) Postings(slot int, keep []bool, dst []Posting) []Posting {
	all := r.lists[slot]
	if keep == nil {
		return all
	}
	n := 0
	for _, o := range r.ords[slot] {
		if o >= 0 && keep[o] {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for i, o := range r.ords[slot] {
		if o >= 0 && keep[o] {
			dst = append(dst, all[i])
		}
	}
	return dst
}

// builder assigns each element the slot of its full data path, found from
// its parent's slot and its tag: a path string is built once per distinct
// path, not once per element.
type builder struct {
	slots map[childPath]int
	paths []string
	lists [][]Posting
}

type childPath struct {
	parent int
	tag    string
}

func (b *builder) add(n *xmltree.Node, parent int) {
	slot, ok := b.slots[childPath{parent, n.Tag}]
	if !ok {
		slot = len(b.paths)
		prefix := ""
		if parent >= 0 {
			prefix = b.paths[parent]
		}
		b.paths = append(b.paths, prefix+"/"+n.Tag)
		b.lists = append(b.lists, nil)
		b.slots[childPath{parent, n.Tag}] = slot
	}
	p := Posting{ID: n.ID, ByteLen: n.ByteLen}
	if n.IsLeaf() {
		p.Value, p.HasValue = n.Value, true
	}
	b.lists[slot] = append(b.lists[slot], p)
	for _, c := range n.Children {
		b.add(c, slot)
	}
}

// Build constructs the path index for doc in one document-order walk, so
// every path's list arrives already Dewey-sorted.
func Build(doc *xmltree.Document) *Index {
	b := builder{slots: map[childPath]int{}}
	b.add(doc.Root, -1)
	order := make([]int, len(b.paths))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return strings.Compare(b.paths[i], b.paths[j]) })
	paths := make([]string, len(order))
	r := &resident{lists: make([][]Posting, len(order)), values: make([][]string, len(order)), ords: make([][]int32, len(order))}
	var scratch []string
	for slot, i := range order {
		// Full data paths recur across every document of a corpus-shaped
		// collection (and across shards); retain the canonical copy.
		paths[slot] = intern.String(b.paths[i])
		r.lists[slot] = b.lists[i]
		scratch, r.values[slot], r.ords[slot] = valueTable(scratch, b.lists[i])
	}
	return newIndex(paths, r, new(atomic.Int64))
}

// valueTable returns the distinct values of a list in ascending order and
// each posting's ordinal among them, sorting in scratch (returned for
// reuse). A list without values gets neither.
func valueTable(scratch []string, postings []Posting) ([]string, []string, []int32) {
	scratch = scratch[:0]
	for _, p := range postings {
		if p.HasValue {
			scratch = append(scratch, p.Value)
		}
	}
	if len(scratch) == 0 {
		return scratch, nil, nil
	}
	slices.Sort(scratch)
	values := slices.Clone(slices.Compact(scratch))
	ords := make([]int32, len(postings))
	for i, p := range postings {
		ords[i] = -1
		if p.HasValue {
			k, _ := slices.BinarySearch(values, p.Value)
			ords[i] = int32(k)
		}
	}
	return scratch, values, ords
}

// NewView returns an index over lists kept in a stored form: paths is the
// sorted directory (canonical strings, as intern.String returns them) and
// lists decodes a path's postings each time a lookup reaches it. The view's
// footprint is its directory. Its probes are added to probes, which the
// caller may share between views: a count kept outside the view survives
// the view being dropped.
func NewView(paths []string, lists Lists, probes *atomic.Int64) *Index {
	return newIndex(paths, lists, probes)
}

// newIndex splits every directory path into its tags, carving the
// segments of all of them from one slab.
func newIndex(paths []string, lists Lists, probes *atomic.Int64) *Index {
	n := 0
	for _, p := range paths {
		n += strings.Count(p, "/")
	}
	slab := make([]string, 0, n)
	segs := make([][]string, len(paths))
	for i, p := range paths {
		start := len(slab)
		slab = append(slab, splitPath(p)...)
		segs[i] = slab[start:len(slab):len(slab)]
	}
	return &Index{paths: paths, segs: segs, lists: lists, probes: probes}
}

// CountInto points the index's probe counter at probes, which the caller
// may share between indices, as NewView's is: a count kept outside the
// index survives the index being dropped. Call it while the index is
// still private — before it serves a probe or is shared.
func (ix *Index) CountInto(probes *atomic.Int64) { ix.probes = probes }

// Probes reports how many index probes have been served: one per full data
// path a lookup reached (paper Figure 7 counts probes per query, whatever
// serves them). An index given a counter (NewView, CountInto) reports that
// counter, shared with whatever other indices it was given to.
func (ix *Index) Probes() int { return int(ix.probes.Load()) }

// Paths returns the path dictionary (sorted distinct element paths).
func (ix *Index) Paths() []string { return ix.paths }

// Lists returns the index's per-path data by directory slot — with Paths,
// the serialization seam the disk store encodes indices through. What a
// built index returns is its own: read-only.
func (ix *Index) Lists() Lists { return ix.lists }

// MatchFullPaths expands a root-anchored pattern with child/descendant axes
// into the full data paths of the dictionary it matches (paper §3.2: "for
// path queries with descendant axes ... the index is probed for each full
// data path").
func (ix *Index) MatchFullPaths(steps []Step) []string {
	var out []string
	for i, p := range ix.paths {
		if matchFrom(steps, ix.segs[i], 0, 0) {
			out = append(out, p)
		}
	}
	return out
}

// MatchPath reports whether the pattern matches the whole full path
// (e.g. steps for "/books//book/isbn" match "/books/shelf/book/isbn").
func MatchPath(steps []Step, fullPath string) bool {
	segs := splitPath(fullPath)
	return matchFrom(steps, segs, 0, 0)
}

func matchFrom(steps []Step, segs []string, si, pi int) bool {
	if si == len(steps) {
		return pi == len(segs)
	}
	st := steps[si]
	if st.Axis == Child {
		return pi < len(segs) && st.matches(segs[pi]) && matchFrom(steps, segs, si+1, pi+1)
	}
	for k := pi; k < len(segs); k++ {
		if st.matches(segs[k]) && matchFrom(steps, segs, si+1, k+1) {
			return true
		}
	}
	return false
}

func splitPath(p string) []string {
	p = strings.TrimPrefix(p, "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// LookupPath returns, for every full data path matching the pattern, that
// path's postings in Dewey order. Without predicates that is the path's
// whole list — on a built index the list the index keeps, returned as-is
// (read-only, like Segs). Leaf predicates are decided per distinct value
// (lookupFullPath), so both are index-only operations.
func (ix *Index) LookupPath(steps []Step, preds []pred.Predicate) []PathPostings {
	var compiled []pred.Compiled
	for _, p := range preds {
		compiled = append(compiled, p.Compile())
	}
	return ix.AppendLookup(nil, new(Scratch), steps, compiled)
}

// Scratch is the memory AppendLookup works in: the predicate bitmap and
// the postings predicates filter, appended across lookups so that every
// returned list stays intact until the owner truncates Postings. Postings
// point into the index (their IDs), so an owner that keeps a Scratch past
// the lookups' use must zero Postings to let a replaced index go.
type Scratch struct {
	Keep     []bool
	Postings []Posting
}

// AppendLookup is LookupPath for a caller that looks up again and again:
// it appends one PathPostings per matching full data path to dst and
// returns the extended slice, taking predicates compiled and writing the
// postings they filter into s. An unfiltered list is the index's own, as
// in LookupPath.
func (ix *Index) AppendLookup(dst []PathPostings, s *Scratch, steps []Step, preds []pred.Compiled) []PathPostings {
	for i, segs := range ix.segs {
		if !matchFrom(steps, segs, 0, 0) {
			continue
		}
		if postings := ix.lookupFullPath(i, preds, s); len(postings) > 0 {
			dst = append(dst, PathPostings{FullPath: ix.paths[i], Segs: segs, Postings: postings})
		}
	}
	return dst
}

// lookupFullPath probes the i-th full data path of the directory. A single
// equality with a non-numeric literal matches by spelling: a binary search
// over the path's values finds its one (path, value) row, or that there is
// none. A numeric literal matches every spelling of its number ("7", "07",
// "7.0"), so it is decided like every other predicate: once per distinct
// value. The list then yields the postings of the values admitted, appended
// to s.Postings.
func (ix *Index) lookupFullPath(i int, preds []pred.Compiled, s *Scratch) []Posting {
	ix.probes.Add(1)
	if len(preds) == 0 {
		return ix.lists.Postings(i, nil, nil)
	}
	n := ix.lists.Values(i)
	keep := slices.Grow(s.Keep[:0], n)[:n]
	clear(keep)
	s.Keep = keep
	if len(preds) == 1 && preds[0].Op() == pred.Eq && !preds[0].Numeric() {
		k, ok := sort.Find(n, func(k int) int { return strings.Compare(preds[0].Lit(), ix.lists.Value(i, k)) })
		if !ok {
			return nil
		}
		keep[k] = true
	} else {
		admitted := false
	value:
		for k := range keep {
			v := ix.lists.Value(i, k)
			for _, c := range preds {
				if !c.Eval(v) {
					continue value
				}
			}
			keep[k], admitted = true, true
		}
		if !admitted {
			return nil
		}
	}
	start := len(s.Postings)
	s.Postings = ix.lists.Postings(i, keep, s.Postings)
	return s.Postings[start:len(s.Postings):len(s.Postings)]
}

// TagPostings returns the postings of every element with the given tag, in
// document order (the tag index used by structural joins). Only the GTP
// comparator asks, so the tag index is derived from the per-path lists on
// the first call; concurrent first callers are safe.
func (ix *Index) TagPostings(tag string) []Posting {
	ix.tagsOnce.Do(func() {
		ix.tags = map[string][]Posting{}
		for i, segs := range ix.segs {
			t := segs[len(segs)-1]
			ix.tags[t] = append(ix.tags[t], ix.lists.Postings(i, nil, nil)...)
		}
		for _, ps := range ix.tags {
			slices.SortFunc(ps, func(a, b Posting) int { return dewey.Compare(a.ID, b.ID) })
		}
	})
	return ix.tags[tag]
}

// DistinctRowCount reports the number of (path, value) rows of the paper's
// table: every distinct value of every path, plus a null-valued row for
// each path holding non-leaf elements. Used by tests and diagnostics; a
// view decodes every list to answer.
func (ix *Index) DistinctRowCount() int {
	n := 0
	for i := range ix.paths {
		n += ix.lists.Values(i)
		if slices.ContainsFunc(ix.lists.Postings(i, nil, nil), func(p Posting) bool { return !p.HasValue }) {
			n++
		}
	}
	return n
}
