package core

// Cluster primitives: the node-side half of distributed scatter-gather
// serving. A coordinator (internal/cluster) fans a search over N node
// processes, each holding a disjoint slice of the partitioned corpus plus a
// copy of every broadcast document. Ranking is split in two phases so the
// merged result is byte-identical to a single-node search:
//
//   - ClusterRank runs the index-only pipeline (PDT generation, view
//     evaluation, TF/byte-length collection) and reports every
//     keyword-matching view result as an unmaterialized candidate, plus the
//     local view size and per-keyword containment counts. The coordinator
//     sums those integers across nodes and performs the one float division
//     (scoring.IDFsFromCounts), scores candidates with scoring.Score, and
//     merges through the same total-ordered scoring.TopK heap — exactly the
//     arithmetic the single-node pipeline performs, in a different grouping
//     that changes no bits.
//   - MaterializeAt deterministically re-runs the same pipeline and
//     materializes only the winning view positions, preserving the paper's
//     deferred-materialization property across the process boundary: no
//     node touches base data for a result that did not win globally.
//
// Both phases attribute every view result to the document its outer FLWOR
// binding came from, which is what gives the coordinator a global (document
// ID, view position) sort key; views whose results cannot be attributed
// that way are rejected with ErrUnpartitionableView and must be served by a
// single node instead.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// ErrUnpartitionableView reports a view whose results cannot be attributed
// one-to-one to outer-binding documents — there is no sound way to scatter
// its evaluation over disjoint corpus partitions (compare with errors.Is).
// Such views are still servable by routing the whole search to one node
// that holds every referenced document.
var ErrUnpartitionableView = errors.New("view cannot be partitioned over outer bindings")

// CompileViewUnchecked compiles a view definition without CompileParsedView's
// literal-document existence check. A cluster node holds only its partition
// of the corpus, so a view the coordinator validated against the
// cluster-wide registry may legitimately reference documents absent here;
// routing guarantees a node only serves searches whose referenced documents
// it holds.
func (e *Engine) CompileViewUnchecked(text string) (*View, error) {
	q, err := xq.Parse(text)
	if err != nil {
		return nil, err
	}
	qpts, err := qpt.Generate(q.Body, q.Functions)
	if err != nil {
		return nil, err
	}
	return &View{Text: text, Expr: q.Body, Funcs: q.Functions, QPTs: qpts}, nil
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
	if _, exists := e.Store.Info(name); exists {
		return fmt.Errorf("core: %w: %q", store.ErrDuplicateName, name)
	}
	if _, inUse := e.Store.InfoByID(docID); inUse {
		return fmt.Errorf("core: add %q: document ID %d already in use", name, docID)
	}
	e.Store.EnsureNextID(docID + 1)
	doc, err := xmltree.ParseString(xmlText, name, docID)
	if err != nil {
		return err
	}
	pix, iix := buildIndices(doc)
	sh := e.shards[e.Store.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.registerLocked(sh, doc, pix, iix)
}

// ReplaceXMLAt is ReplaceXML under an externally assigned document ID (see
// AddXMLAt): the replacement takes its position in global document order
// from docID, which the coordinator allocates, so every node agrees on it.
func (e *Engine) ReplaceXMLAt(name, xmlText string, docID int32) error {
	if docID < 1 {
		return fmt.Errorf("core: replace %q: document ID %d out of range", name, docID)
	}
	if _, exists := e.Store.Info(name); !exists {
		return fmt.Errorf("core: replace: %w %q", ErrUnknownDocument, name)
	}
	if _, inUse := e.Store.InfoByID(docID); inUse {
		return fmt.Errorf("core: replace %q: document ID %d already in use", name, docID)
	}
	e.Store.EnsureNextID(docID + 1)
	doc, err := xmltree.ParseString(xmlText, name, docID)
	if err != nil {
		return err
	}
	pix, iix := buildIndices(doc)
	sh := e.shards[e.Store.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := e.replaceLocked(sh, doc, pix, iix); err != nil {
		if errors.Is(err, store.ErrUnknownName) {
			return fmt.Errorf("core: replace: %w %q", ErrUnknownDocument, name)
		}
		return err
	}
	return nil
}

// ClusterCandidate is one keyword-matching view result of a node-local
// ranking pass, reduced to what the coordinator needs to score and order it
// globally: nothing is materialized.
type ClusterCandidate struct {
	// Doc is the ID of the document the result's outer FLWOR binding came
	// from. Partitioned documents live on exactly one node, so (Doc, Pos)
	// orders candidates across nodes exactly as view positions order them
	// in the equivalent single-node search.
	Doc int32
	// Pos is the result's index in the node's full local view output — the
	// handle MaterializeAt resolves.
	Pos int
	// TFs are the per-keyword term frequencies of the result's subtree.
	TFs []int
	// ByteLen is the aggregate serialized length scoring normalizes by.
	ByteLen int
}

// ClusterRanking is a node's reply to the scatter phase of a distributed
// search: every matching candidate plus the integer score statistics the
// coordinator sums across nodes before computing IDFs.
type ClusterRanking struct {
	// ViewSize is the node-local |V(D)| — including results that did not
	// match the keywords, which still count toward IDF denominators.
	ViewSize int
	// Contains counts, per keyword, the local view results containing it.
	Contains []int
	// Matched is len(Candidates), kept explicit for the wire.
	Matched int
	// Candidates holds the matching results in local view order.
	Candidates []ClusterCandidate
	// Stats is the node-local cost breakdown (materialization not included).
	Stats *Stats
}

// ClusterRank runs the index-only phases of a search — PDT generation, view
// evaluation, stat collection, keyword-semantics filtering — and returns
// every matching result as an unmaterialized candidate attributed to its
// outer-binding document. Scoring and top-k selection are the coordinator's
// job: a score depends on corpus-global IDFs no single node can know.
// Options.K is ignored (every candidate is reported) and KeywordPruning is
// not applied (its context-sensitive IDF statistics cannot be merged).
func (e *Engine) ClusterRank(ctx context.Context, v *View, keywords []string, opts Options) (*ClusterRanking, error) {
	kws := normalizeKeywords(keywords)
	results, owners, stats, err := e.clusterEval(ctx, v, kws, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rstats := make([]scoring.Stats, len(results))
	chunks := chunkBounds(len(results), stats.Workers*4)
	if err := forEach(ctx, stats.Workers, len(chunks), func(c int) {
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			rstats[i] = scoring.Collect(results[i], kws, scoring.FromPDT)
		}
	}); err != nil {
		return nil, err
	}
	out := &ClusterRanking{
		ViewSize: len(results),
		Contains: scoring.Contains(rstats, len(kws)),
		Stats:    stats,
	}
	for i := range results {
		if !scoring.Satisfies(rstats[i].TFs, !opts.Disjunctive) {
			continue
		}
		out.Candidates = append(out.Candidates, ClusterCandidate{
			Doc: owners[i], Pos: i, TFs: rstats[i].TFs, ByteLen: rstats[i].ByteLen,
		})
	}
	out.Matched = len(out.Candidates)
	stats.Matched = out.Matched
	stats.PostTime = time.Since(start)
	return out, nil
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
// ranking reported. A position out of range reports the corpus changed
// underneath and is an error, never a silent skip. The int result counts
// the base-data subtree fetches performed (Stats.SubtreeFetches of this
// pass alone).
func (e *Engine) MaterializeAt(ctx context.Context, v *View, keywords []string, opts Options, positions []int) ([]ClusterMaterialized, int, error) {
	// Pin before planning, exactly like SearchPage: materialization below
	// runs after the shard locks are released.
	e.Store.Pin()
	defer e.Store.Unpin()
	kws := normalizeKeywords(keywords)
	results, _, _, err := e.clusterEval(ctx, v, kws, opts)
	if err != nil {
		return nil, 0, err
	}
	fetcher := &scoring.CountingFetcher{Fetcher: e.Store}
	out := make([]ClusterMaterialized, 0, len(positions))
	for _, pos := range positions {
		if err := ctxErr(ctx); err != nil {
			return nil, 0, err
		}
		if pos < 0 || pos >= len(results) {
			return nil, 0, fmt.Errorf("core: materialize position %d out of range (view has %d results)", pos, len(results))
		}
		elem := scoring.Materialize(results[pos], fetcher)
		out = append(out, ClusterMaterialized{Pos: pos, Element: elem, Snippet: scoring.Snippet(elem, kws, snippetWidth)})
	}
	return out, fetcher.Fetches, nil
}

// clusterEval runs plan → PDT generation → attributed view evaluation and
// returns the full view output with one owner document ID per result.
// Keywords are already normalized. Every shard read lock is released by
// return time (like rankedSearch), so callers may collect stats or
// materialize lock-free afterwards.
func (e *Engine) clusterEval(ctx context.Context, v *View, kws []string, opts Options) ([]*xmltree.Node, []int32, *Stats, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, nil, nil, err
	}
	p, err := e.lockAndPlan(v)
	if err != nil {
		return nil, nil, nil, err
	}
	defer p.unlock()
	stats := &Stats{Workers: opts.workers(), Candidates: len(p.units), ShardsSearched: len(p.shards)}

	catalog, err := p.generatePDTs(ctx, kws, nil, stats)
	if err != nil {
		return nil, nil, nil, err
	}

	start := time.Now()
	results, owners, err := e.evalViewAttributed(ctx, v, catalog, opts, stats.Workers)
	if err != nil {
		return nil, nil, nil, err
	}
	stats.EvalTime = time.Since(start)
	stats.ViewResults = len(results)
	return results, owners, stats, nil
}

// evalViewAttributed is evalView with provenance: it always evaluates the
// view per outer FLWOR binding (the partition evalView uses when parallel,
// which is documented — and property-tested — to reproduce the whole-query
// result exactly), and labels every output node with the document ID of the
// binding that produced it. Views that are not outer-partitionable — no
// top-level FLWOR, a leading let clause, or outer bindings that are not
// base elements — fail with ErrUnpartitionableView.
func (e *Engine) evalViewAttributed(ctx context.Context, v *View, catalog xqeval.Catalog, opts Options, workers int) ([]*xmltree.Node, []int32, error) {
	newEval := func() *xqeval.Evaluator {
		ev := xqeval.New(catalog, v.Funcs)
		ev.HashJoin = !opts.DisableHashJoin
		ev.SetContext(ctx)
		return ev
	}
	fl, isFLWOR := v.Expr.(*xq.FLWORExpr)
	if !isFLWOR {
		return nil, nil, fmt.Errorf("core: %w: view is not a FLWOR expression", ErrUnpartitionableView)
	}
	bindings, ok, err := newEval().OuterBindings(fl)
	if err != nil {
		return nil, nil, wrapEvalErr(err)
	}
	if !ok {
		return nil, nil, fmt.Errorf("core: %w: view starts with a let clause", ErrUnpartitionableView)
	}
	owners := make([]int32, len(bindings))
	for i, b := range bindings {
		n, isNode := b.(*xmltree.Node)
		if !isNode || len(n.ID) == 0 {
			return nil, nil, fmt.Errorf("core: %w: outer binding %d is not a base element", ErrUnpartitionableView, i)
		}
		owners[i] = n.ID[0]
	}
	chunks := chunkBounds(len(bindings), workers*4)
	outs := make([][]*xmltree.Node, len(chunks))
	odocs := make([][]int32, len(chunks))
	errs := make([]error, len(chunks))
	poolErr := forEachWorker(ctx, workers, len(chunks), func() func(int) {
		ev := newEval() // evaluators are single-threaded; one per worker
		return func(c int) {
			for bi := chunks[c][0]; bi < chunks[c][1]; bi++ {
				items, err := ev.EvalTail(fl, bindings[bi])
				if err != nil {
					errs[c] = err
					return
				}
				nodes := nodesOf(items)
				outs[c] = append(outs[c], nodes...)
				for range nodes {
					odocs[c] = append(odocs[c], owners[bi])
				}
			}
		}
	})
	if poolErr != nil {
		return nil, nil, poolErr
	}
	var results []*xmltree.Node
	var resultOwners []int32
	for c := range chunks {
		if errs[c] != nil {
			return nil, nil, wrapEvalErr(errs[c])
		}
		results = append(results, outs[c]...)
		resultOwners = append(resultOwners, odocs[c]...)
	}
	return results, resultOwners, nil
}
