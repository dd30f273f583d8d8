package core

import (
	"context"
	"sync"
	"sync/atomic"

	"vxml/internal/invindex"
	"vxml/internal/scoring"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// forEach runs fn(0..n-1) on a pool of at most `workers` goroutines
// (inline when the pool would be pointless). Workers pull indices from an
// atomic counter, so uneven per-item cost still balances. Cancellation is
// cooperative: every worker checks ctx before pulling its next item, so a
// cancel stops the pool within one item per worker; forEach always waits
// for the in-flight items to finish (no goroutine outlives the call) and
// returns the wrapped ctx error if the loop was cut short.
func forEach(ctx context.Context, workers, n int, fn func(i int)) error {
	return forEachWorker(ctx, workers, n, func() func(int) { return fn })
}

// forEachWorker is forEach for work that needs per-worker state (e.g. a
// single-threaded evaluator): newWorker runs once per pool goroutine and
// returns that worker's item function.
func forEachWorker(ctx context.Context, workers, n int, newWorker func() func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		fn := newWorker()
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctxErr(ctx)
}

// chunkBounds splits n items into at most `chunks` contiguous [lo, hi)
// ranges. Chunk boundaries never affect results — outputs are concatenated
// back in index order — only load balance.
func chunkBounds(n, chunks int) [][2]int {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]int, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// evalView runs the view expression over the PDT catalog — the one
// evaluator every search path uses, at every pool size. A top-level FLWOR
// that opens with a for clause is partitioned over that clause's binding
// sequence: the bindings are split into contiguous chunks and each worker
// evaluates the remaining clauses for its chunks with its own evaluator
// over the shared immutable catalog. FLWOR evaluates bindings
// independently, so concatenating the chunk outputs in order is exactly
// the whole-expression result (xqeval.OuterBindings). It returns the
// results in view order plus the bindings and how many results each
// produced, which is what lets the cluster primitives attribute results to
// documents. Any other view (no top-level FLWOR, or one that opens with a
// let) is evaluated whole by a single evaluator and returns nil bindings
// and counts. Every evaluator carries ctx, so cancellation unwinds between
// FLWOR bindings either way.
func evalView(ctx context.Context, v *View, catalog xqeval.Catalog, opts Options, workers int) (results []*xmltree.Node, bindings []xqeval.Item, counts []int, err error) {
	newEval := func() *xqeval.Evaluator {
		ev := xqeval.New(catalog, v.Funcs)
		ev.SetContext(ctx)
		return ev
	}
	primary := newEval()
	fl, _ := v.Expr.(*xq.FLWORExpr)
	partitionable := false
	if fl != nil {
		if bindings, partitionable, err = primary.OuterBindings(fl); err != nil {
			return nil, nil, nil, &evalError{err}
		}
	}
	if !partitionable {
		items, err := primary.Eval(v.Expr, nil)
		if err != nil {
			return nil, nil, nil, &evalError{err}
		}
		return appendNodes(nil, items), nil, nil, nil
	}
	// More chunks than workers lets fast workers steal from slow ones;
	// outputs are stitched back in chunk order so the partition is
	// invisible in the result.
	chunks := chunkBounds(len(bindings), workers*4)
	outs := make([][]*xmltree.Node, len(chunks))
	errs := make([]error, len(chunks))
	counts = make([]int, len(bindings))
	poolErr := forEachWorker(ctx, workers, len(chunks), func() func(int) {
		ev := newEval() // evaluators are single-threaded; one per worker
		return func(c int) {
			for bi := chunks[c][0]; bi < chunks[c][1]; bi++ {
				// Tails without a for clause of their own never reach the
				// evaluator's ctx checks; check between outer bindings too.
				if errs[c] = ctx.Err(); errs[c] != nil {
					return
				}
				items, err := ev.EvalTail(fl, bindings[bi])
				if err != nil {
					errs[c] = err
					return
				}
				before := len(outs[c])
				outs[c] = appendNodes(outs[c], items)
				counts[bi] = len(outs[c]) - before
			}
		}
	})
	if poolErr != nil {
		return nil, nil, nil, poolErr
	}
	total := 0
	for c := range chunks {
		if errs[c] != nil {
			return nil, nil, nil, &evalError{errs[c]}
		}
		total += len(outs[c])
	}
	results = make([]*xmltree.Node, 0, total)
	for _, out := range outs {
		results = append(results, out...)
	}
	return results, bindings, counts, nil
}

// evalError marks an evaluation failure so Search can report its phase. It
// unwraps, so a context error surfacing through the evaluator still
// matches errors.Is(err, context.Canceled).
type evalError struct{ err error }

func (e *evalError) Error() string { return "core: evaluating view over PDTs: " + e.err.Error() }
func (e *evalError) Unwrap() error { return e.err }

// collectChunk is the number of results one collect work unit covers. It
// is fixed rather than derived from the pool size so that ctx is checked
// every collectChunk results even at a pool of one.
const collectChunk = 64

// collect is the stat-collection phase: the per-result scoring inputs (term
// frequencies and byte length), index-aligned with o.results. A
// materialized view brings its own; for PDT-pruned results — fresh from
// direct evaluation or a stored skeleton alike — one pooled loop derives
// them (resultStats). It runs lock-free.
func (o *viewOutput) collect(ctx context.Context) ([]scoring.Stats, error) {
	if o.rstats != nil {
		return o.rstats, nil
	}
	rstats := make([]scoring.Stats, len(o.results))
	chunks := chunkBounds(len(o.results), (len(o.results)+collectChunk-1)/collectChunk)
	err := forEach(ctx, o.stats.Workers, len(chunks), func(c int) {
		for i := chunks[c][0]; i < chunks[c][1]; i++ {
			rstats[i] = scoring.Stats{TFs: make([]int, len(o.kws))}
			addResultStats(&rstats[i], o.results[i], o.lists)
		}
	})
	return rstats, err
}

// addResultStats adds one PDT-pruned view result's scoring inputs to st,
// mirroring scoring.Collect(FromPDT)'s walk: each Meta node contributes its
// whole base subtree exactly once, constructed wrappers contribute nothing.
// Engine PDTs carry no Meta.TFs (and a skeleton outlives the keywords of
// the search that built it), so each term frequency is the posting list's
// Dewey-range sum over the Meta node's base subtree — by construction the
// value PDT generation attaches when given keywords (the pdt property suite
// pins Meta.TFs == SubtreeTF over the base subtree; Theorem 4.1(b)). Only
// the 'c' nodes that reach a view result pay for it, each exactly once
// (selection views visit every Meta node once per search, so there is
// nothing for a memo to save; the range sums themselves are kept cheap).
func addResultStats(st *scoring.Stats, n *xmltree.Node, lists map[int32][]*invindex.PostingList) {
	if n.Meta == nil {
		for _, c := range n.Children {
			addResultStats(st, c, lists)
		}
		return
	}
	st.ByteLen += n.Meta.SrcLen
	if len(n.Meta.SrcID) > 0 {
		for j, pl := range lists[n.Meta.SrcID[0]] {
			st.TFs[j] += pl.SubtreeTF(n.Meta.SrcID)
		}
	}
}
