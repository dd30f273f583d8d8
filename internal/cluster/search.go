package cluster

// Distributed search: the scatter-gather merge (rank on every node, sum
// integer statistics, score and select centrally, materialize winners where
// they live) and the single-node route for views that cannot scatter.
// Option normalization, paging and query-result caching are not written
// here: Search calls vxml.PlannedSearch, the same orchestrator
// vxml.Database.SearchContext runs, with the retry-on-stale distributed
// route as its uncached run — so a coordinator is a drop-in Database for
// the serving layer, byte-identical results included.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"sync"
	"time"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/scoring"
)

// Search runs a ranked keyword search over a registered view, distributed
// across the cluster, with vxml.Database.SearchContext semantics (it runs
// the same vxml.PlannedSearch): same option normalization, same
// Offset/TopK paging, same query-result cache discipline, byte-identical
// results. When one or more slots are lost mid-search the surviving
// partitions' results are returned together with an error wrapping
// vxml.ErrPartialCluster (and per-member outcomes in Stats.Nodes) on every
// route, paged or not, cached or not; partial results are never cached.
func (c *Coordinator) Search(ctx context.Context, name string, keywords []string, opts *vxml.Options) ([]vxml.Result, *vxml.Stats, error) {
	// PlannedSearch repeats this pre-flight; doing it here too keeps a dead
	// ctx reported ahead of an invalid option or an unknown view.
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("vxml: search interrupted: %w", err)
	}
	if opts != nil && opts.Approach != vxml.Efficient {
		return nil, nil, fmt.Errorf("%w: the cluster serves only the efficient approach", vxml.ErrInvalidOptions)
	}
	// Rejected here, where every node would reject it, rather than
	// scattered and reported as a failed fan-out.
	if _, err := core.NormalizeKeywords(keywords); err != nil {
		return nil, nil, err
	}
	c.mu.RLock()
	v := c.views[name]
	c.mu.RUnlock()
	if v == nil {
		return nil, nil, fmt.Errorf("cluster: %w: %q", vxml.ErrUnknownView, name)
	}
	return vxml.PlannedSearch(ctx, c.cache, v.Text, keywords, opts,
		func(ctx context.Context, opts *vxml.Options, pageOffset int) ([]vxml.Result, *vxml.Stats, error) {
			return c.searchUncached(ctx, name, v, keywords, opts, pageOffset)
		})
}

// searchUncached re-issues the search while nodes keep answering at newer
// generations than the snapshot vector (a mutation landed mid-search); the
// bounded budget turns a mutation storm into ErrStaleGeneration instead of
// a livelock.
func (c *Coordinator) searchUncached(ctx context.Context, name string, v *core.View, keywords []string, opts *vxml.Options, pageOffset int) ([]vxml.Result, *vxml.Stats, error) {
	attempts := 1 + searchRetries
	var lastErr error
	for a := 0; a < attempts; a++ {
		results, stats, err := c.searchOnce(ctx, name, v, keywords, opts, pageOffset)
		if err == nil || !errors.Is(err, vxml.ErrStaleGeneration) {
			if err == nil && stats != nil {
				stats.PlanSource = catalog.PlanDirect
			}
			return results, stats, err
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("cluster: search kept racing mutations after %d attempts: %w", attempts, lastErr)
}

// searchOnce snapshots the generation vector and routing decision, then
// runs one scatter-gather or single-node pass against that snapshot.
func (c *Coordinator) searchOnce(ctx context.Context, name string, v *core.View, keywords []string, opts *vxml.Options, pageOffset int) ([]vxml.Result, *vxml.Stats, error) {
	c.mu.RLock()
	vec := make([]uint64, len(c.gens))
	copy(vec, c.gens)
	rt, err := c.classifyLocked(v)
	c.mu.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	if rt.scatter {
		return c.scatterSearch(ctx, name, keywords, opts, pageOffset, vec)
	}
	return c.singleSearch(ctx, name, keywords, opts, pageOffset, vec, rt.slot)
}

// candRef locates a merged candidate for the materialize phase: the slot
// that ranked it and its position in that node's local view output.
type candRef struct {
	slot int
	pos  int
}

// slotOutcome is one slot call's result: the member that answered (-1 if
// none), every member's outcome in member order, and the error that ended
// the call.
type slotOutcome struct {
	member   int
	statuses []vxml.NodeStatus
	err      error
}

// slotCall is the one failover loop every coordinator read goes through. It
// calls the slot's members in order, preferred first, and records each as
// ok, failed (with the node's generation on a stale reply) or skipped. The
// member that answers becomes the slot's sticky member (c.answered), which
// the next rank or single-node read prefers. It stops at the first answer,
// and early when no other member can help: a member at a newer generation
// than gen (ErrStaleGeneration — the whole search retries), a done ctx, or
// an invalid reply (returned as the *nodeCallError; callers map it). Any
// other failure — a member down, timed out, or lagging behind gen — moves on
// to the next member.
func (c *Coordinator) slotCall(ctx context.Context, slot, preferred int, gen uint64, call func(member string) error) slotOutcome {
	members := c.cfg.Slots[slot]
	out := slotOutcome{member: -1, statuses: make([]vxml.NodeStatus, len(members))}
	order := append(make([]int, 0, len(members)), preferred)
	for i, m := range members {
		out.statuses[i] = vxml.NodeStatus{URL: m, Slot: slot, State: "skipped"}
		if i != preferred {
			order = append(order, i)
		}
	}
	var lastErr error
	for _, i := range order {
		st := &out.statuses[i]
		err := call(members[i])
		if err == nil {
			st.State, st.Gen = "ok", gen
			out.member = i
			c.answered[slot].Store(int32(i))
			return out
		}
		st.State, st.Err = "failed", err.Error()
		if have, ok := staleGen(err); ok {
			st.Gen = have
			if have > gen {
				out.err = fmt.Errorf("%w: slot %d answered generation %d, expected %d", vxml.ErrStaleGeneration, slot, have, gen)
				return out
			}
		} else if ctxErr := ctx.Err(); ctxErr != nil {
			out.err = fmt.Errorf("cluster: search interrupted: %w", ctxErr)
			return out
		} else if _, invalid := invalidReply(err); invalid {
			out.err = err
			return out
		}
		lastErr = err
	}
	out.err = fmt.Errorf("slot %d unavailable: %w", slot, lastErr)
	return out
}

// sticky returns the member of slot s that last answered a read.
func (c *Coordinator) sticky(s int) int { return int(c.answered[s].Load()) }

// scatterSearch is the distributed route: rank on every slot, merge
// centrally, materialize winners where they live.
func (c *Coordinator) scatterSearch(ctx context.Context, name string, keywords []string, opts *vxml.Options, pageOffset int, vec []uint64) ([]vxml.Result, *vxml.Stats, error) {
	start := time.Now()
	slots := c.cfg.Slots
	base := rankRequest{Schema: Schema, View: name, Keywords: keywords, Disjunctive: opts.Disjunctive, Parallelism: opts.Parallelism}

	// Phase 1: rank everywhere, concurrently.
	ranks := make([]slotOutcome, len(slots))
	resps := make([]*rankResponse, len(slots))
	var wg sync.WaitGroup
	for s := range slots {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			req := base
			req.Gen = vec[s]
			ranks[s] = c.slotCall(ctx, s, c.sticky(s), vec[s], func(member string) error {
				var err error
				resps[s], err = c.rankMember(ctx, member, req)
				return err
			})
		}(s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("cluster: search interrupted: %w", err)
	}

	stats := &vxml.Stats{Workers: 1}
	failedSlots := 0
	for s := range ranks {
		if err := ranks[s].err; err != nil {
			if errors.Is(err, vxml.ErrStaleGeneration) {
				flattenStatuses(stats, ranks)
				return nil, stats, err
			}
			if msg, invalid := invalidReply(err); invalid {
				// The view is not scatterable on the node either.
				flattenStatuses(stats, ranks)
				return nil, stats, fmt.Errorf("%w: %s", vxml.ErrUnroutableView, msg)
			}
			failedSlots++
		}
	}
	if failedSlots == len(slots) {
		flattenStatuses(stats, ranks)
		return nil, stats, fmt.Errorf("cluster: all %d slot(s) failed: %w", len(slots), vxml.ErrPartialCluster)
	}

	// Merge: sum the integer statistics, then do the one float64 division
	// and per-candidate scoring exactly as a single node would.
	totalView := 0
	contains := make([]int, len(keywords))
	for _, resp := range resps {
		if resp == nil {
			continue
		}
		totalView += resp.ViewSize
		for j := range contains {
			if j < len(resp.Contains) {
				contains[j] += resp.Contains[j]
			}
		}
		addNodeStats(stats, resp.Stats)
	}
	idfs := scoring.IDFsFromCounts(totalView, contains)
	top := scoring.NewTopK(opts.TopK)
	refs := map[int]candRef{}
	for s, resp := range resps {
		if resp == nil {
			continue
		}
		for _, cand := range resp.Candidates {
			// (doc ID, local view position) is order-isomorphic to the
			// global view position the oracle breaks ties on: the outer
			// enumeration is document-ID order and each partitioned
			// document lives on exactly one node.
			idx := int(cand.Doc)<<32 | cand.Pos
			if _, dup := refs[idx]; dup {
				continue
			}
			refs[idx] = candRef{slot: s, pos: cand.Pos}
			st := scoring.Stats{TFs: cand.TFs, ByteLen: cand.ByteLen}
			top.Push(scoring.Scored{Stats: st, Score: scoring.Score(st, idfs), Index: idx})
		}
	}
	winners := top.Sorted()
	if pageOffset >= len(winners) {
		winners = nil
	} else {
		winners = winners[pageOffset:]
	}

	// Phase 2: materialize the winners on their owning slots, each slot's
	// batch in winner order so results stream back already ordered.
	type slotBatch struct {
		positions []int
		winnerIdx []int
	}
	bySlot := map[int]*slotBatch{}
	for j, w := range winners {
		ref := refs[w.Index]
		b := bySlot[ref.slot]
		if b == nil {
			b = &slotBatch{}
			bySlot[ref.slot] = b
		}
		b.positions = append(b.positions, ref.pos)
		b.winnerIdx = append(b.winnerIdx, j)
	}
	type matOut struct {
		xml, snippet string
		ok           bool
	}
	outs := make([]matOut, len(winners))
	mats := make([]slotOutcome, len(slots))
	fetches := make([]int, len(slots))
	var matWg sync.WaitGroup
	for s, b := range bySlot {
		matWg.Add(1)
		go func(s int, b *slotBatch) {
			defer matWg.Done()
			req := materializeRequest{rankRequest: base, Positions: b.positions}
			req.Gen = vec[s]
			// Members are called directly, not through callMember: the
			// rank that named these positions just succeeded on the slot.
			mats[s] = c.slotCall(ctx, s, ranks[s].member, vec[s], func(member string) error {
				k := 0
				done, err := c.readReply(ctx, member, "/materialize", req, func(line replyLine) error {
					if line.Pos == nil || k >= len(b.positions) || *line.Pos != b.positions[k] {
						return fmt.Errorf("materialize stream from %s: position out of order", member)
					}
					outs[b.winnerIdx[k]] = matOut{xml: line.XML, snippet: line.Snippet, ok: true}
					k++
					return nil
				})
				if err == nil && k != len(b.positions) {
					err = fmt.Errorf("materialize stream from %s: %d of %d positions delivered", member, k, len(b.positions))
				}
				fetches[s] = done.Fetches
				return err
			})
			if mats[s].err != nil {
				for _, j := range b.winnerIdx {
					outs[j] = matOut{}
				}
			}
		}(s, b)
	}
	matWg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("cluster: search interrupted: %w", err)
	}
	for s := range mats {
		// A member the materialize call reached reports that outcome: a
		// primary that ranked but failed to materialize is failed, and the
		// replica that served its winners instead is ok.
		for i, st := range mats[s].statuses {
			if st.State != "skipped" {
				ranks[s].statuses[i] = st
			}
		}
		switch err := mats[s].err; {
		case err == nil:
			stats.BaseData += fetches[s]
		case errors.Is(err, vxml.ErrStaleGeneration):
			flattenStatuses(stats, ranks)
			return nil, stats, err
		default:
			failedSlots++
		}
	}

	// Assemble: stop at the first winner whose slot died mid-materialize,
	// so partial results are always an exact rank prefix (of the surviving
	// partitions' merge), never a list with silent holes.
	results := make([]vxml.Result, 0, len(winners))
	for j, w := range winners {
		if !outs[j].ok {
			break
		}
		results = append(results, vxml.Result{
			Rank:    pageOffset + j + 1,
			Score:   w.Score,
			TF:      core.TFMap(keywords, w.Stats.TFs),
			XML:     outs[j].xml,
			Snippet: outs[j].snippet,
		})
	}
	stats.Total = time.Since(start)
	flattenStatuses(stats, ranks)
	if failedSlots > 0 {
		return results, stats, fmt.Errorf("cluster: %d of %d slot(s) missing from the results: %w", failedSlots, len(slots), vxml.ErrPartialCluster)
	}
	return results, stats, nil
}

// addNodeStats folds one node's reported cost breakdown into a scatter
// search's stats, once per answering slot: phase times and counters sum
// across nodes; Workers reports the widest pool any node ran.
func addNodeStats(st, node *vxml.Stats) {
	if node == nil {
		return
	}
	st.PDTTime += node.PDTTime
	st.EvalTime += node.EvalTime
	st.PostTime += node.PostTime
	st.PDTNodes += node.PDTNodes
	st.PDTBytes += node.PDTBytes
	st.ViewSize += node.ViewSize
	st.Matched += node.Matched
	st.BaseData += node.BaseData
	st.Workers = max(st.Workers, node.Workers)
	st.Candidates += node.Candidates
	st.ShardsSearched += node.ShardsSearched
}

// flattenStatuses fills stats.Nodes with every member's outcome, in slot
// then member order.
func flattenStatuses(stats *vxml.Stats, slots []slotOutcome) {
	stats.Nodes = stats.Nodes[:0]
	for s := range slots {
		stats.Nodes = append(stats.Nodes, slots[s].statuses...)
	}
}

// callMember runs one member RPC under the per-member discipline rank and
// single-node search share: transport failures are retried up to the
// configured budget, a missed view push self-heals once (unknown_view →
// push the definition, retry), and an answer from the node — any
// nodeCallError — is final, since repeating the request would be futile.
func (c *Coordinator) callMember(ctx context.Context, member, view string, call func() error) error {
	attempts := 1 + c.cfg.Retries
	healed := false
	var lastErr error
	for a := 0; a < attempts; a++ {
		err := call()
		if err == nil {
			return nil
		}
		if isUnknownView(err) && !healed {
			healed = true
			if c.healView(ctx, member, view) {
				a--
				continue
			}
		}
		var ne *nodeCallError
		if errors.As(err, &ne) || ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// rankMember posts one rank request to one member.
func (c *Coordinator) rankMember(ctx context.Context, member string, req rankRequest) (*rankResponse, error) {
	var resp rankResponse
	err := c.callMember(ctx, member, req.View, func() error {
		resp = rankResponse{}
		return c.postJSON(ctx, member, "/rank", req, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// healView re-pushes a registered view to a member that reported
// unknown_view (it was down or unborn when DefineView broadcast it).
func (c *Coordinator) healView(ctx context.Context, member, name string) bool {
	c.mu.RLock()
	v := c.views[name]
	c.mu.RUnlock()
	return v != nil && c.pushView(ctx, member, name, v.Text) == nil
}

// readReply runs one streamed read RPC (/materialize or /search) against
// one member: it hands each data line to data in order, turns an error line
// into a *nodeCallError, and returns the done line. A stream that ends
// before its done line is truncated and fails. A failover retry re-reads
// from the first line; re-delivery is harmless because a reply is
// deterministic at a pinned generation.
func (c *Coordinator) readReply(ctx context.Context, member, path string, req any, data func(replyLine) error) (replyLine, error) {
	resp, cancel, err := c.postStream(ctx, member, path, req)
	if err != nil {
		return replyLine{}, err
	}
	defer cancel()
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var line replyLine
		if err := dec.Decode(&line); err != nil {
			return replyLine{}, fmt.Errorf("%s stream from %s: %w", path[1:], member, err)
		}
		switch {
		case line.Error != "":
			return replyLine{}, &nodeCallError{Code: line.Code, Msg: line.Error, Gen: line.Gen}
		case line.Done:
			return line, nil
		}
		if err := data(line); err != nil {
			return replyLine{}, err
		}
	}
}

// singleSearch is the route for views that cannot scatter: the whole
// search runs as one streamed RPC on a node that holds every referenced
// document — the owning slot, or any slot when only broadcast documents
// are referenced (slot < 0), failing over in slot then member order.
func (c *Coordinator) singleSearch(ctx context.Context, name string, keywords []string, opts *vxml.Options, pageOffset int, vec []uint64, slot int) ([]vxml.Result, *vxml.Stats, error) {
	start := time.Now()
	targets := []int{slot}
	if slot < 0 {
		targets = targets[:0]
		for s := range c.cfg.Slots {
			targets = append(targets, s)
		}
	}
	var tried []slotOutcome
	for _, s := range targets {
		req := searchRequest{
			Schema: Schema, View: name, Keywords: keywords,
			TopK: opts.TopK, Offset: pageOffset,
			Disjunctive: opts.Disjunctive, Parallelism: opts.Parallelism,
			Gen: vec[s],
		}
		var results []vxml.Result
		var done replyLine
		out := c.slotCall(ctx, s, c.sticky(s), vec[s], func(member string) error {
			return c.callMember(ctx, member, name, func() (err error) {
				results = nil
				done, err = c.readReply(ctx, member, "/search", req, func(line replyLine) error {
					results = append(results, vxml.Result{
						Rank:    line.Rank,
						Score:   line.Score,
						TF:      core.TFMap(keywords, line.TFs),
						XML:     line.XML,
						Snippet: line.Snippet,
					})
					return nil
				})
				return err
			})
		})
		tried = append(tried, out)
		stats := &vxml.Stats{}
		flattenStatuses(stats, tried)
		switch {
		case out.err == nil:
			if done.Stats != nil {
				done.Stats.Nodes = stats.Nodes
				stats = done.Stats
			}
			stats.Total = time.Since(start)
			return results, stats, nil
		case errors.Is(out.err, vxml.ErrStaleGeneration):
			return nil, stats, out.err
		case ctx.Err() != nil && errors.Is(out.err, ctx.Err()):
			return nil, nil, out.err
		}
		if msg, invalid := invalidReply(out.err); invalid {
			return nil, stats, fmt.Errorf("%w: %s", vxml.ErrInvalidOptions, msg)
		}
	}
	stats := &vxml.Stats{}
	flattenStatuses(stats, tried)
	return nil, stats, fmt.Errorf("cluster: no node can serve the view (%d member(s) tried, last: %v): %w", len(stats.Nodes), tried[len(tried)-1].err, vxml.ErrPartialCluster)
}

// Results is the coordinator's streaming delivery, mirroring
// vxml.Database.Results: the yielded sequence is byte-identical to what
// Search returns for the same arguments, because it is that page. Search
// computes it whole first — cache, routing, generation-race retries and
// every winner's materialization included — and vxml.Replay then yields
// it. A search that lost a slot yields the surviving in-order prefix
// followed by a final (zero Result, error wrapping vxml.ErrPartialCluster)
// pair — never a silently truncated sequence; any other failure is the one
// pair yielded.
func (c *Coordinator) Results(ctx context.Context, name string, keywords []string, opts *vxml.Options) iter.Seq2[vxml.Result, error] {
	return func(yield func(vxml.Result, error) bool) {
		// The eager path (compute the page, then replay) both serves the
		// cache contract and keeps partial-cluster delivery uniform: the
		// prefix is yielded, then the error.
		results, _, err := c.Search(ctx, name, keywords, opts)
		vxml.Replay(ctx, results, err)(yield)
	}
}
