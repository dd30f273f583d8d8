// Package pdt implements the PDT Generation Module, the paper's main
// technical contribution (§4): constructing Pruned Document Trees from a
// QPT using only the path index and the inverted-list index — the base
// document is never touched. The PDT contains exactly the elements that
// satisfy the QPT's mutual ancestor/descendant constraints (Definitions
// 1-3), with values materialized for 'v' nodes and per-keyword term
// frequencies plus byte lengths attached to 'c' nodes.
//
// GeneratePDT makes a single pass over the Dewey-ordered ID lists with a
// Candidate Tree maintained as the root-to-cursor chain (the paper's
// "left-most path"): ParentLists and DescendantMaps enforce the mutual
// constraints, PdtCaches hold elements whose ancestor constraints are still
// undecided, and CTQNodeSets handle repeated tag names where one element
// matches several QPT nodes (Appendix E). Unlike the paper we defer the
// InPdt fast-path emission and resolve all pending cache entries when their
// ancestors finalize; this changes memory behaviour slightly (pending
// candidates are held until their ancestors pop) but not the output, which
// tests verify against a direct implementation of Definitions 1-3.
package pdt

import (
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/qpt"
)

// PathList is one ordered ID list produced by PrepareLists: the postings of
// one full data path serving one QPT node, together with the per-depth QPT
// match sets of that full path (used to map ID prefixes back to QPT nodes).
type PathList struct {
	QNode *qpt.Node
	pathindex.PathPostings
	// Matches[d] holds the QPT nodes matched by the prefix of depth d+1
	// (Matches[len(Segs)-1] always contains QNode).
	Matches [][]*qpt.Node
}

// Lists is the output of PrepareLists.
type Lists struct {
	Paths    []PathList
	Keywords []string
	Inv      []*invindex.PostingList // one per keyword
}

// PrepareLists issues the fixed set of index probes of Figure 7: the QPT's
// path lookups (qpt.QPT.Probes) plus one inverted-list lookup per query
// keyword. The number of probes depends only on the query, never on the data
// size — and so does the work per probe: segments and unfiltered posting
// lists come out of the index as stored, predicates compiled and the
// per-depth match sets out of the QPT's memo, so nothing is copied, split
// or sorted per call. Keywords only feed Meta.TFs; a caller that does not
// need them passes none and gets keyword-free PDTs.
func PrepareLists(q *qpt.QPT, pix *pathindex.Index, iix *invindex.Index, keywords []string) *Lists {
	n := len(q.Probes()) // usually one full path per probe
	m := listMemory{Lists: Lists{Paths: make([]PathList, 0, n)}, found: make([]pathindex.PathPostings, 0, n)}
	m.prepare(q, pix, iix, keywords)
	return &m.Lists
}

// listMemory is prepared Lists together with the memory they are prepared
// in: the path lookups' results and their scratch (the predicate bitmap
// and the predicate-filtered postings). A generator keeps one, so that
// preparing a candidate document's lists allocates nothing once warm.
type listMemory struct {
	Lists
	found  []pathindex.PathPostings
	lookup pathindex.Scratch
}

// prepare is PrepareLists into m, which must be reset.
func (m *listMemory) prepare(q *qpt.QPT, pix *pathindex.Index, iix *invindex.Index, keywords []string) {
	for _, pr := range q.Probes() {
		start := len(m.found)
		m.found = pix.AppendLookup(m.found, &m.lookup, pr.Steps, pr.Preds)
		for _, pp := range m.found[start:] {
			m.Paths = append(m.Paths, PathList{QNode: pr.Node, PathPostings: pp, Matches: q.MatchSets(pp.FullPath, pp.Segs)})
		}
	}
	m.Keywords = keywords
	for _, k := range keywords {
		m.Inv = append(m.Inv, iix.Lookup(k))
	}
}

// reset zeroes everything in m that points into a document's index,
// keeping the backings for the next document.
func (m *listMemory) reset() {
	clear(m.Paths)
	clear(m.Inv)
	clear(m.found)
	clear(m.lookup.Postings)
	m.Paths, m.Keywords, m.Inv = m.Paths[:0], nil, m.Inv[:0]
	m.found, m.lookup.Postings = m.found[:0], m.lookup.Postings[:0]
}
