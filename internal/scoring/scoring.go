// Package scoring implements the Scoring & Materialization Module (paper
// §2.2 and §4.2.2.2): it enforces conjunctive or disjunctive keyword
// semantics over view results, computes element-level TF-IDF scores, and
// materializes only the top-k winners from document storage.
//
// The same code scores both pipelines. For the Efficient pipeline the term
// frequencies come from the NodeMeta payloads that PDT generation attached
// to 'c' elements, and the byte lengths from those elements' own ByteLen
// (which is the base subtree's); for the Baseline pipeline they are
// computed from the materialized base subtrees referenced by the result.
// Theorem 4.1 guarantees — and the test suite verifies — that both modes
// produce identical scores and rank order.
package scoring

import (
	"math"
	"slices"
	"sync"

	"vxml/internal/dewey"
	"vxml/internal/xmltree"
)

// Mode selects where Collect finds scoring payloads.
type Mode int

// Collection modes.
const (
	// FromPDT reads the Meta-marked elements of PDT generation: their
	// NodeMeta term frequencies and their own byte lengths.
	FromPDT Mode = iota
	// FromBase computes statistics from materialized base subtrees
	// (elements that carry a Dewey ID).
	FromBase
)

// Stats aggregates the scoring inputs of one view result element: the
// per-keyword term frequencies and the total byte length of the base
// content it contains.
type Stats struct {
	TFs     []int
	ByteLen int
}

// Collect walks a view result tree and aggregates term frequencies and
// byte lengths from its scoring payloads. Constructed wrapper elements
// contribute nothing; each referenced base element contributes its whole
// subtree exactly once.
func Collect(result *xmltree.Node, keywords []string, mode Mode) Stats {
	st := Stats{TFs: make([]int, len(keywords))}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		switch {
		case mode == FromPDT && n.Meta != nil:
			for i := range keywords {
				if i < len(n.Meta.TFs) {
					st.TFs[i] += n.Meta.TFs[i]
				}
			}
			st.ByteLen += n.ByteLen
			return // Meta covers the whole base subtree
		case mode == FromBase && len(n.ID) > 0:
			tf := xmltree.SubtreeTF(n, keywords)
			for i := range keywords {
				st.TFs[i] += tf[i]
			}
			st.ByteLen += n.ByteLen
			return // the base subtree is counted wholesale
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(result)
	return st
}

// Scored is one ranked view result.
type Scored struct {
	Result *xmltree.Node
	Stats  Stats
	Score  float64
	Index  int // position of the result in the view output sequence
}

// Ranking is the output of Rank: the matching results ordered by
// descending score, plus the corpus statistics used.
type Ranking struct {
	Results []Scored
	IDFs    []float64
	// ViewSize is |V(D)|, the total number of view results (the TF-IDF
	// numerator of §2.2).
	ViewSize int
	// Matched counts the results that satisfied the keyword semantics.
	Matched int
}

// Rank scores the view results for the keyword query and returns the top k
// (k <= 0 means all matches), implementing Problem Ranked-KS. Results with
// equal scores keep view order (ties broken deterministically by view
// position).
func Rank(results []*xmltree.Node, keywords []string, conjunctive bool, k int, mode Mode) *Ranking {
	stats := make([]Stats, len(results))
	for i, res := range results {
		stats[i] = Collect(res, keywords, mode)
	}
	return RankWithStats(results, stats, keywords, conjunctive, k)
}

// IDFs computes the inverse document frequencies over precollected result
// stats: idf(k) = |V(D)| / |{e in V(D) : contains(e, k)}| (§2.2). Keywords
// absent from the whole view contribute nothing (idf 0).
func IDFs(stats []Stats, nKeywords int) []float64 {
	return IDFsFromCounts(len(stats), Contains(stats, nKeywords))
}

// Contains counts, for each keyword, the results whose subtree contains it
// (tf > 0) — the denominator statistic of IDFs. It is exposed separately so
// a distributed merge can sum per-partition counts before the one float
// division IDFsFromCounts performs.
func Contains(stats []Stats, nKeywords int) []int {
	contains := make([]int, nKeywords) // # results containing keyword i
	for i := range stats {
		for j := 0; j < nKeywords && j < len(stats[i].TFs); j++ {
			if stats[i].TFs[j] > 0 {
				contains[j]++
			}
		}
	}
	return contains
}

// IDFsFromCounts computes IDFs from a view size and per-keyword containment
// counts (see Contains). Both inputs may be integer sums over disjoint
// corpus partitions: summing exactly and then performing the single float64
// division here yields IDFs bit-identical to a one-partition computation,
// which is what keeps distributed scoring byte-identical to single-node.
func IDFsFromCounts(viewSize int, contains []int) []float64 {
	idfs := make([]float64, len(contains))
	for j := range idfs {
		if contains[j] > 0 {
			idfs[j] = float64(viewSize) / float64(contains[j])
		}
	}
	return idfs
}

// Score computes one result's TF-IDF score from its stats and the view's
// IDFs: sum of tf·idf, normalized by aggregate byte length (§4.2.2.2). The
// exact normalization form is immaterial as long as every pipeline shares
// it; log damping is the convention of [40].
func Score(st Stats, idfs []float64) float64 {
	score := 0.0
	for j := range idfs {
		if j < len(st.TFs) {
			score += float64(st.TFs[j]) * idfs[j]
		}
	}
	return score / math.Log2(2+float64(st.ByteLen))
}

// RankWithStats is Rank over stats that were already collected (possibly by
// concurrent workers). results[i] and stats[i] must correspond, in view
// output order.
func RankWithStats(results []*xmltree.Node, stats []Stats, keywords []string, conjunctive bool, k int) *Ranking {
	r := &Ranking{ViewSize: len(results)}
	r.IDFs = IDFs(stats, len(keywords))
	top := NewTopK(k)
	for i, res := range results {
		if !Satisfies(stats[i].TFs, conjunctive) {
			continue
		}
		r.Matched++
		top.Push(Scored{Result: res, Stats: stats[i], Score: Score(stats[i], r.IDFs), Index: i})
	}
	r.Results = top.Sorted()
	return r
}

// Better is the ranking order: a precedes b on higher score, with ties
// broken deterministically by ascending view position. View positions are
// distinct, so Better is a total order — which is what makes bounded
// selection insensitive to the order results are pushed in.
func Better(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// TopK selects the top k results under Better. It is safe for concurrent
// Push, and because Better is a total order the selected set and its Sorted
// order are independent of push order — the property a distributed merge
// relies on to stay byte-identical with a single-node ranking. k <= 0 keeps
// everything.
type TopK struct {
	mu   sync.Mutex
	k    int
	heap []Scored // min-heap: root is the worst kept result
}

// NewTopK returns a selector keeping the top k results (k <= 0: unbounded).
func NewTopK(k int) *TopK { return &TopK{k: k} }

// worse orders the internal heap: the root must lose to every other kept
// result, so the parent relation is "ranks after".
func (t *TopK) worse(i, j int) bool { return Better(t.heap[j], t.heap[i]) }

// Push offers one scored result to the selection.
func (t *TopK) Push(s Scored) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.k <= 0 || len(t.heap) < t.k {
		t.heap = append(t.heap, s)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if Better(s, t.heap[0]) {
		t.heap[0] = s
		t.siftDown(0)
	}
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.heap) && t.worse(l, min) {
			min = l
		}
		if r < len(t.heap) && t.worse(r, min) {
			min = r
		}
		if min == i {
			return
		}
		t.heap[i], t.heap[min] = t.heap[min], t.heap[i]
		i = min
	}
}

// Sorted returns the selection in final rank order (Better). The selector
// must not be pushed to concurrently with Sorted.
func (t *TopK) Sorted() []Scored {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Scored, len(t.heap))
	copy(out, t.heap)
	slices.SortFunc(out, func(a, b Scored) int {
		switch {
		case Better(a, b):
			return -1
		case Better(b, a):
			return 1
		}
		return 0
	})
	return out
}

// Satisfies reports whether a result's per-keyword term frequencies meet
// the keyword semantics: every keyword present (conjunctive) or any
// keyword present (disjunctive). An empty keyword list is satisfied.
func Satisfies(tfs []int, conjunctive bool) bool {
	if len(tfs) == 0 {
		return true
	}
	for _, tf := range tfs {
		if conjunctive && tf == 0 {
			return false
		}
		if !conjunctive && tf > 0 {
			return true
		}
	}
	return conjunctive
}

// Fetcher serves base subtree fetches during materialization. *store.Store
// implements it; callers that need an exact per-query fetch count wrap it
// (see CountingFetcher).
type Fetcher interface {
	Subtree(id dewey.ID) *xmltree.Node
}

// CountingFetcher counts the fetches of one materialization pass, so a
// search can report its own base-data accesses exactly even while other
// searches drive the store's shared counters concurrently.
type CountingFetcher struct {
	Fetcher
	Fetches int
}

// Subtree delegates and counts successful fetches.
func (c *CountingFetcher) Subtree(id dewey.ID) *xmltree.Node {
	n := c.Fetcher.Subtree(id)
	if n != nil {
		c.Fetches++
	}
	return n
}

// Materialize expands a (possibly pruned) view result into a complete tree:
// every element with a Dewey ID — a PDT element, or a base element of the
// Baseline pipeline — stands for its full base subtree, fetched from
// document storage: the only base-data access of the Efficient pipeline,
// performed for top-k winners only. The fetched subtree is returned as it
// is, not copied; only constructed wrappers are built anew. The result is
// therefore read-only: it may share nodes with the store and with other
// results.
func Materialize(result *xmltree.Node, st Fetcher) *xmltree.Node {
	if len(result.ID) > 0 {
		if full := st.Subtree(result.ID); full != nil {
			return full
		}
	}
	out := &xmltree.Node{Tag: result.Tag, Value: result.Value, ID: result.ID.Clone()}
	for _, c := range result.Children {
		out.AppendChild(Materialize(c, st))
	}
	return out
}
