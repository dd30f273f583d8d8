// Package pathindex implements the Path-Values table of paper §3.2
// (Figure 5): one row per distinct (root-to-element path, atomic value)
// pair, each row holding the sorted list of Dewey IDs of the elements on
// that path with that value, all indexed by a B+-tree on the composite
// (Path, Value) key.
//
// Queries follow the paper exactly: a path query with an equality value
// predicate probes the composite key; a path query without predicates reads
// the path's rows merged into one ID list; a path with descendant axes is
// first expanded against the path dictionary into the matching full data
// paths, each of which is probed separately. The merge is a function of the
// document alone, so it is done once, when the index is built or loaded:
// every full data path keeps its Dewey-ordered posting list and its split
// segments, and a lookup's cost does not grow with the list it returns.
//
// The index additionally stores each element's subtree byte length in its
// posting (needed by PDT generation for score normalization, §4.2.2.2) and
// derives, on first use, a tag index (element IDs per tag) for the GTP
// baseline's structural joins.
package pathindex

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"vxml/internal/btree"
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

// FormatSteps renders a pattern like "/books//book/isbn".
func FormatSteps(steps []Step) string {
	var b strings.Builder
	for _, s := range steps {
		b.WriteString(s.Axis.String())
		b.WriteString(s.Tag)
	}
	return b.String()
}

// Posting is one element occurrence in a row of the Path-Values table.
type Posting struct {
	ID       dewey.ID
	Value    string
	HasValue bool // false for non-leaf elements (the paper's null value)
	ByteLen  int
}

// PathPostings groups the postings of one full data path, in Dewey order.
// PDT generation needs the full path to map ID prefixes back to QPT nodes.
// Segs and, for a lookup without predicates, Postings are the index's own:
// callers must treat them as read-only.
type PathPostings struct {
	FullPath string   // e.g. "/books/book/isbn"
	Segs     []string // FullPath split into its tags
	Postings []Posting
}

// row is the value stored under one (path, value) composite key.
type row struct {
	postings []Posting // document order == ascending Dewey ID
}

// pathList is one full data path of the dictionary: its tags and its
// postings merged across all its (path, value) rows in Dewey order.
type pathList struct {
	segs     []string
	postings []Posting
}

// Index is the path index of a single document. Once built it is immutable
// apart from the atomic probe counters and the lazily derived tag index, so
// concurrent searches may probe it freely.
type Index struct {
	tree   *btree.Tree  // (path \x00 value) -> *row
	paths  []string     // sorted dictionary of distinct element paths
	lists  []pathList   // aligned with paths
	probes atomic.Int64 // full-path lookups answered from lists, not the tree

	tagsOnce sync.Once
	tags     map[string][]Posting
}

// pathRows is what Build and FromRows know about one path while they fill
// the tree: its merged postings, its first row and its row count.
type pathRows struct {
	postings []Posting
	first    *row
	rows     int
}

// addRow stores a new row of the path under key.
func (pr *pathRows) addRow(tree *btree.Tree, key []byte, r *row) {
	if pr.rows == 0 {
		pr.first = r
	}
	pr.rows++
	tree.Put(key, r)
}

// Build constructs the path index for doc in one document-order walk, so
// every path's merged list arrives already Dewey-sorted.
func Build(doc *xmltree.Document) *Index {
	ix := &Index{tree: btree.New()}
	byPath := map[string]*pathRows{}
	doc.Root.Walk(func(n *xmltree.Node) {
		path := n.PathFromRoot()
		p := Posting{ID: n.ID, ByteLen: n.ByteLen}
		if n.IsLeaf() {
			p.Value = n.Value
			p.HasValue = true
		}
		pr := byPath[path]
		if pr == nil {
			pr = &pathRows{}
			byPath[path] = pr
		}
		pr.postings = append(pr.postings, p)
		key := compositeKey(path, p.Value, p.HasValue)
		if v, ok := ix.tree.Get(key); ok {
			r := v.(*row)
			r.postings = append(r.postings, p)
		} else {
			pr.addRow(ix.tree, key, &row{postings: []Posting{p}})
		}
	})
	ix.finish(byPath)
	return ix
}

// finish turns the per-path lists (postings already in Dewey order) into
// the sorted dictionary. A path whose postings all live in one row shares
// that row's list instead of holding a second copy, so the merged lists
// cost memory only where a path has several values.
func (ix *Index) finish(byPath map[string]*pathRows) {
	ix.paths = make([]string, 0, len(byPath))
	for p := range byPath {
		ix.paths = append(ix.paths, p)
	}
	slices.Sort(ix.paths)
	ix.lists = make([]pathList, len(ix.paths))
	for i, p := range ix.paths {
		pr := byPath[p]
		if pr.rows == 1 {
			pr.first.postings = pr.postings
		}
		// Full data paths recur across every document of a corpus-shaped
		// collection (and across shards); retain the canonical copy.
		ix.paths[i] = intern.String(p)
		ix.lists[i] = pathList{segs: splitPath(ix.paths[i]), postings: pr.postings}
	}
}

// compositeKey builds the (Path, Value) B+-tree key. Paths never contain
// NUL, so "path\x00" is a proper prefix of every key for that path. Rows
// without values (non-leaf elements) sort first under "\x00n\x00".
func compositeKey(path, value string, hasValue bool) []byte {
	marker := byte('n')
	if hasValue {
		marker = 'v'
	}
	k := make([]byte, 0, len(path)+len(value)+3)
	k = append(k, path...)
	k = append(k, 0, marker, 0)
	k = append(k, value...)
	return k
}

// Probes reports how many index probes have been served: B+-tree probes plus
// full-path lookups answered from the merged lists, one per lookup either
// way (paper Figure 7 counts probes per query, whatever serves them).
func (ix *Index) Probes() int { return ix.tree.Probes() + int(ix.probes.Load()) }

// Paths returns the path dictionary (sorted distinct element paths).
func (ix *Index) Paths() []string { return ix.paths }

// MatchFullPaths expands a root-anchored pattern with child/descendant axes
// into the full data paths of the dictionary it matches (paper §3.2: "for
// path queries with descendant axes ... the index is probed for each full
// data path").
func (ix *Index) MatchFullPaths(steps []Step) []string {
	var out []string
	for i, p := range ix.paths {
		if matchFrom(steps, ix.lists[i].segs, 0, 0) {
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
		return pi < len(segs) && segs[pi] == st.Tag && matchFrom(steps, segs, si+1, pi+1)
	}
	for k := pi; k < len(segs); k++ {
		if segs[k] == st.Tag && matchFrom(steps, segs, si+1, k+1) {
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
// path's postings merged across all its (path, value) rows in Dewey order.
// Without predicates that is the list the index keeps per path, returned
// as-is: it (like Segs) is the index's own and read-only, as Rows' are.
// Leaf predicates are applied to the values: a single equality with a
// non-numeric literal is a composite-key point probe; anything else is one
// in-order filter pass over the path's list (both are index-only operations).
func (ix *Index) LookupPath(steps []Step, preds []pred.Predicate) []PathPostings {
	var out []PathPostings
	for i := range ix.lists {
		pl := &ix.lists[i]
		if !matchFrom(steps, pl.segs, 0, 0) {
			continue
		}
		if postings := ix.lookupFullPath(i, preds); len(postings) > 0 {
			out = append(out, PathPostings{FullPath: ix.paths[i], Segs: pl.segs, Postings: postings})
		}
	}
	return out
}

// lookupFullPath probes the i-th full data path of the dictionary.
func (ix *Index) lookupFullPath(i int, preds []pred.Predicate) []Posting {
	// A single equality with a non-numeric literal matches by spelling: a
	// point probe on the composite key. A numeric literal matches every
	// spelling of its value ("7", "07", "7.0"), which only the filter finds.
	if len(preds) == 1 && preds[0].Op == pred.Eq && !preds[0].Compile().Numeric() {
		if v, ok := ix.tree.Get(compositeKey(ix.paths[i], preds[0].Lit, true)); ok {
			return v.(*row).postings
		}
		return nil
	}
	ix.probes.Add(1)
	all := ix.lists[i].postings
	if len(preds) == 0 {
		return all
	}
	// One pass decides (each literal parsed once, not once per posting),
	// a second copies into a list sized for exactly the survivors.
	compiled := make([]pred.Compiled, len(preds))
	for j, p := range preds {
		compiled[j] = p.Compile()
	}
	keep := make([]bool, len(all))
	n := 0
posting:
	for i := range all {
		if !all[i].HasValue {
			continue
		}
		for _, c := range compiled {
			if !c.Eval(all[i].Value) {
				continue posting
			}
		}
		keep[i] = true
		n++
	}
	kept := make([]Posting, 0, n)
	for i, ok := range keep {
		if ok {
			kept = append(kept, all[i])
		}
	}
	return kept
}

// TagPostings returns the postings of every element with the given tag, in
// document order (the tag index used by structural joins). Only the GTP
// comparator asks, so the tag index is derived from the per-path lists on
// the first call; concurrent first callers are safe.
func (ix *Index) TagPostings(tag string) []Posting {
	ix.tagsOnce.Do(func() {
		ix.tags = map[string][]Posting{}
		for _, pl := range ix.lists {
			t := pl.segs[len(pl.segs)-1]
			ix.tags[t] = append(ix.tags[t], pl.postings...)
		}
		for _, ps := range ix.tags {
			slices.SortFunc(ps, func(a, b Posting) int { return dewey.Compare(a.ID, b.ID) })
		}
	})
	return ix.tags[tag]
}

// DistinctRowCount reports the number of (path, value) rows; used by tests
// and diagnostics.
func (ix *Index) DistinctRowCount() int { return ix.tree.Len() }

// Row is one (path, value) row of the Path-Values table in exported form:
// the composite key split back into its parts plus the row's postings in
// Dewey order. Rows/FromRows are the serialization seam the disk backend
// stores indices through, so a loaded index never has to re-walk the
// document it indexes.
type Row struct {
	Path     string
	Value    string
	HasValue bool
	Postings []Posting
}

// Rows snapshots every row in composite-key order. The postings slices are
// the index's own — callers must treat them as read-only.
func (ix *Index) Rows() []Row {
	rows := make([]Row, 0, ix.tree.Len())
	for it := ix.tree.Min(); it.Valid(); it.Next() {
		key := it.Key()
		i := strings.IndexByte(string(key), 0)
		rows = append(rows, Row{
			Path:     string(key[:i]),
			Value:    string(key[i+3:]),
			HasValue: key[i+1] == 'v',
			Postings: it.Value().(*row).postings,
		})
	}
	return rows
}

// FromRows rebuilds an index from a Rows snapshot: the B+-tree from the
// composite keys, and the path dictionary with each path's merged list by
// regrouping the rows' postings per path, once, in document (Dewey) order.
// For any document, FromRows(Build(doc).Rows()) answers every probe
// identically to Build(doc).
func FromRows(rows []Row) *Index {
	ix := &Index{tree: btree.New()}
	byPath := map[string]*pathRows{}
	for _, r := range rows {
		pr := byPath[r.Path]
		if pr == nil {
			pr = &pathRows{}
			byPath[r.Path] = pr
		}
		pr.addRow(ix.tree, compositeKey(r.Path, r.Value, r.HasValue), &row{postings: r.Postings})
		if pr.rows == 1 {
			// Shared while the path has one row; capped, so a second row's
			// append copies instead of writing into the first row's storage.
			pr.postings = r.Postings[:len(r.Postings):len(r.Postings)]
		} else {
			pr.postings = append(pr.postings, r.Postings...)
		}
	}
	for _, pr := range byPath {
		if pr.rows > 1 {
			slices.SortFunc(pr.postings, func(a, b Posting) int { return dewey.Compare(a.ID, b.ID) })
		}
	}
	ix.finish(byPath)
	return ix
}
