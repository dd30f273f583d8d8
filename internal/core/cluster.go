package core

// Cluster primitives: the node-side half of distributed scatter-gather
// serving. A coordinator (internal/cluster) fans a search over N node
// processes, each holding a disjoint slice of the partitioned corpus plus a
// copy of every broadcast document. Ranking is split in two phases so the
// merged result is byte-identical to a single-node search:
//
//   - ClusterRank runs the same plan and view-output phases as a local
//     search (PDT generation, view evaluation, TF/byte-length collection)
//     and reports every keyword-matching view result as an
//     unmaterialized candidate, plus the local view size and per-keyword
//     containment counts. The coordinator sums those integers across nodes
//     and performs the one float division (scoring.IDFsFromCounts), scores
//     candidates with scoring.Score, and merges through the same
//     total-ordered scoring.TopK heap — exactly the arithmetic the
//     single-node pipeline performs, in a different grouping that changes
//     no bits.
//   - MaterializeAt deterministically re-runs plan and view output and
//     materializes only the winning view positions, through the same winner
//     loop local searches use, preserving the paper's deferred-
//     materialization property across the process boundary: no node touches
//     base data for a result that did not win globally.
//
// Both phases attribute every view result to the outer document it came
// from (owners), which is what gives the coordinator a global (document
// ID, view position) sort key; views the partition rule (Deps.Partition)
// refuses cannot be attributed that way, are rejected with
// ErrUnpartitionableView and must be served by a single node instead.

import (
	"context"
	"errors"
	"fmt"

	"vxml/internal/scoring"
	"vxml/internal/xmltree"
)

// ErrUnpartitionableView reports a view the partition rule refuses
// (Deps.Partition): its results cannot be attributed to outer documents,
// so there is no sound way to scatter its evaluation over disjoint corpus
// partitions (compare with errors.Is).
// Such views are still servable by routing the whole search to one node
// that holds every referenced document.
var ErrUnpartitionableView = errors.New("view cannot be partitioned over outer bindings")

// NodeStatus is one cluster member's outcome within a distributed search
// (see Stats.Nodes).
type NodeStatus struct {
	// URL is the member's base URL; Slot is the corpus partition it holds.
	URL  string `json:"url"`
	Slot int    `json:"slot"`
	// State is "ok" for a member whose reply was merged, "failed" for one
	// that was tried and gave none, and "skipped" for one never tried
	// (an earlier member of its slot already answered).
	State string `json:"state"`
	// Gen is the corpus generation the member answered at (0 if none).
	Gen uint64 `json:"gen,omitempty"`
	// Err describes the failure when State is "failed".
	Err string `json:"error,omitempty"`
}

// AddXMLAt is AddXML under an externally assigned document ID: the document
// is parsed, stored and indexed with docID as the first component of every
// Dewey ID. A cluster node ingests under coordinator-assigned IDs so that
// global document order (the tie-break order of ranking) is identical on
// every node and on the single-node oracle. The local ID sequence is raised
// past docID, so mixed local/remote ingest cannot collide.
func (e *Engine) AddXMLAt(name, xmlText string, docID int32) error {
	if docID < 1 {
		return fmt.Errorf("core: add %q: document ID %d out of range", name, docID)
	}
	return e.ingest(name, xmlText, docID, false)
}

// ReplaceXMLAt is ReplaceXML under an externally assigned document ID (see
// AddXMLAt): the replacement takes its position in global document order
// from docID, which the coordinator allocates, so every node agrees on it.
func (e *Engine) ReplaceXMLAt(name, xmlText string, docID int32) error {
	if docID < 1 {
		return fmt.Errorf("core: replace %q: document ID %d out of range", name, docID)
	}
	return e.ingest(name, xmlText, docID, true)
}

// ClusterCandidate is one keyword-matching view result of a node-local
// ranking pass, reduced to what the coordinator needs to score and order it
// globally: nothing is materialized.
type ClusterCandidate struct {
	// Doc is the ID of the outer document the result came from.
	// Partitioned documents live on exactly one node, so (Doc, Pos) orders
	// candidates across nodes exactly as view positions order them in the
	// equivalent single-node search.
	Doc int32 `json:"doc"`
	// Pos is the result's index in the node's full local view output — the
	// handle MaterializeAt resolves.
	Pos int `json:"pos"`
	// TFs are the per-keyword term frequencies of the result's subtree.
	TFs []int `json:"tfs"`
	// ByteLen is the aggregate serialized length scoring normalizes by.
	ByteLen int `json:"byte_len"`
}

// ClusterRanking is a node's reply to the scatter phase of a distributed
// search: every matching candidate plus the integer score statistics the
// coordinator sums across nodes before computing IDFs.
type ClusterRanking struct {
	// ViewSize is the node-local |V(D)| — including results that did not
	// match the keywords, which still count toward IDF denominators.
	ViewSize int `json:"view_size"`
	// Contains counts, per keyword, the local view results containing it.
	Contains []int `json:"contains"`
	// Matched is len(Candidates), kept explicit for the wire.
	Matched int `json:"matched"`
	// Candidates holds the matching results in local view order.
	Candidates []ClusterCandidate `json:"candidates"`
	// Stats is the node-local cost breakdown (materialization not included).
	Stats *Stats `json:"stats"`
}

// ClusterRank runs the index-only phases of a search — PDT generation, view
// evaluation, stat collection, keyword-semantics filtering — and returns
// every matching result as an unmaterialized candidate attributed to its
// outer document. Scoring and top-k selection are the coordinator's
// job: a score depends on corpus-global IDFs no single node can know.
// Options.K is ignored (every candidate is reported) and the planner is not
// consulted (its artifacts carry no owners).
func (e *Engine) ClusterRank(ctx context.Context, v *View, keywords []string, opts Options) (*ClusterRanking, error) {
	out, err := e.attributedOutput(ctx, v, keywords, opts, keepNone)
	if err != nil {
		return nil, err
	}
	rstats := out.rstats
	rk := &ClusterRanking{
		ViewSize: len(out.results),
		Contains: scoring.Contains(rstats, len(out.kws)),
	}
	for i := range out.results {
		if !scoring.Satisfies(rstats[i].TFs, !opts.Disjunctive) {
			continue
		}
		rk.Candidates = append(rk.Candidates, ClusterCandidate{
			Doc: out.owners[i], Pos: i, TFs: rstats[i].TFs, ByteLen: rstats[i].ByteLen,
		})
	}
	rk.Matched = len(rk.Candidates)
	out.stats.Matched = rk.Matched
	rk.Stats = out.closePost()
	return rk, nil
}

// ClusterMaterialized is one view result expanded by MaterializeAt.
type ClusterMaterialized struct {
	// Pos echoes the requested view position.
	Pos int
	// Element is the fully materialized result subtree.
	Element *xmltree.Node
	// Snippet is the keyword-in-context excerpt cut from Element.
	Snippet string
}

// MaterializeAt re-runs the pipeline that produced a ClusterRanking and
// materializes the view results at the given positions (ClusterCandidate
// handles), in the order requested. The re-run is deterministic, so as long
// as the corpus has not mutated in between — the cluster RPC layer guards
// this with a generation check — position i resolves to the same result the
// ranking reported. A position out of range is an error wrapping
// ErrInvalidOptions, never a silent skip. The int result counts
// the base-data subtree fetches performed (Stats.BaseData of this
// pass alone).
func (e *Engine) MaterializeAt(ctx context.Context, v *View, keywords []string, opts Options, positions []int) ([]ClusterMaterialized, int, error) {
	// Pin before planning, exactly like SearchPage: materialization below
	// runs after the shard locks are released.
	e.Store.Pin()
	defer e.Store.Unpin()
	out, err := e.attributedOutput(ctx, v, keywords, opts, keepAll)
	if err != nil {
		return nil, 0, err
	}
	picked := make([]scoring.Scored, len(positions))
	for i, pos := range positions {
		if pos < 0 || pos >= len(out.results) {
			return nil, 0, fmt.Errorf("core: %w: materialize position %d out of range (view has %d results)", ErrInvalidOptions, pos, len(out.results))
		}
		picked[i] = scoring.Scored{Result: out.results[pos]}
	}
	fetcher := &scoring.CountingFetcher{Fetcher: e.Store}
	mats := make([]ClusterMaterialized, 0, len(positions))
	for r, err := range out.winners(ctx, picked, 0, fetcher) {
		if err != nil {
			return nil, 0, err
		}
		mats = append(mats, ClusterMaterialized{Pos: positions[r.Rank-1], Element: r.Element, Snippet: r.Snippet})
	}
	return mats, fetcher.Fetches, nil
}

// attributedOutput is viewOutput for the cluster primitives: a direct
// (never planner-served) evaluation, whose owners attribute every result
// to its outer document. A view the partition rule (Deps.Partition)
// refuses is rejected with ErrUnpartitionableView; this is the only place a
// view is. A view that runs per document attributes each result to its
// unit's document; a literal outer document owns every result: every outer
// binding is a node of it, its document node included, and a node that
// lacks it has no results. k is which results the caller reads (keep).
func (e *Engine) attributedOutput(ctx context.Context, v *View, keywords []string, opts Options, k keep) (*viewOutput, error) {
	if reason := v.Deps.Partition(); reason != "" {
		return nil, fmt.Errorf("core: %w: %s", ErrUnpartitionableView, reason)
	}
	opts.Plan = false
	return e.viewOutput(ctx, v, keywords, opts, k)
}
