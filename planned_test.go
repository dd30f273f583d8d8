// Tests for the planned-search orchestrator itself, against a fake RunFunc
// that counts invocations: the protocol's cache/window/page decisions are
// pinned here without an engine or a cluster behind them.
package vxml_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"vxml"
	"vxml/internal/catalog"
)

// fakeRun is a RunFunc over a fixed five-result ranking. It records how it
// was called and can be told to misbehave on the next invocation.
type fakeRun struct {
	cat   *catalog.Catalog
	calls int
	// lastOpts and lastOffset are the arguments of the latest invocation.
	lastOpts   vxml.Options
	lastOffset int
	// fault selects the next invocation's behaviour: "" answers, "error"
	// fails with nothing, "partial" fails after producing its page, "bump"
	// answers but a mutation lands (the generation moves) mid-run.
	fault string
}

var errFakeRun = errors.New("fake run failed")

func (f *fakeRun) run(_ context.Context, opts *vxml.Options, pageOffset int) ([]vxml.Result, *vxml.Stats, error) {
	f.calls++
	f.lastOpts, f.lastOffset = *opts, pageOffset
	if f.fault == "error" {
		return nil, nil, errFakeRun
	}
	depth := 5
	if opts.TopK > 0 && opts.TopK < depth {
		depth = opts.TopK
	}
	var page []vxml.Result
	for rank := pageOffset + 1; rank <= depth; rank++ {
		page = append(page, vxml.Result{Rank: rank, Score: 1 / float64(rank), TF: map[string]int{"Copper": rank}, XML: fmt.Sprintf("<r>%d</r>", rank)})
	}
	stats := &vxml.Stats{PlanSource: catalog.PlanDirect, Matched: 5}
	switch f.fault {
	case "partial":
		return page, stats, errFakeRun
	case "bump":
		f.cat.Invalidate()
	}
	return page, stats, nil
}

func TestPlannedSearchProtocol(t *testing.T) {
	type step struct {
		opts  *vxml.Options
		fault string
		// wantCalls is the cumulative number of run invocations after the
		// step; wantRanks the returned page; wantSource the reported plan
		// source ("" when no stats are expected); wantErr whether the step
		// must fail with the fake's error.
		wantCalls  int
		wantRanks  []int
		wantSource string
		wantErr    bool
		// wantRunOpts, when non-nil, is what the run must have been handed
		// on this step (Cache and the like included), with wantRunOffset.
		wantRunOpts   *vxml.Options
		wantRunOffset int
	}
	all := []int{1, 2, 3, 4, 5}
	cases := []struct {
		name  string
		steps []step
	}{
		{"exact hit and window rewrite never invoke the run", []step{
			{opts: &vxml.Options{Cache: true}, wantCalls: 1, wantRanks: all, wantSource: catalog.PlanDirect},
			{opts: &vxml.Options{Cache: true}, wantCalls: 1, wantRanks: all, wantSource: catalog.PlanCacheHit},
			{opts: &vxml.Options{Cache: true, TopK: 2}, wantCalls: 1, wantRanks: []int{1, 2}, wantSource: catalog.PlanRewritten},
		}},
		{"cached pages compute the unpaged entry once", []step{
			{opts: &vxml.Options{Cache: true, Offset: 2, TopK: 2}, wantCalls: 1, wantRanks: []int{3, 4}, wantSource: catalog.PlanDirect,
				wantRunOpts: &vxml.Options{Cache: true}},
			{opts: &vxml.Options{Cache: true, Offset: 4, TopK: 2}, wantCalls: 1, wantRanks: []int{5}, wantSource: catalog.PlanCacheHit},
			{opts: &vxml.Options{Cache: true, Offset: 9, TopK: 2}, wantCalls: 1, wantRanks: nil, wantSource: catalog.PlanCacheHit},
			{opts: &vxml.Options{Cache: true}, wantCalls: 1, wantRanks: all, wantSource: catalog.PlanCacheHit},
		}},
		{"an uncached page ranks Offset+TopK deep and caches nothing", []step{
			{opts: &vxml.Options{Offset: 2, TopK: 2}, wantCalls: 1, wantRanks: []int{3, 4}, wantSource: catalog.PlanDirect,
				wantRunOpts: &vxml.Options{TopK: 4}, wantRunOffset: 2},
			{opts: &vxml.Options{Offset: 2}, wantCalls: 2, wantRanks: []int{3, 4, 5}, wantSource: catalog.PlanDirect,
				wantRunOpts: &vxml.Options{}, wantRunOffset: 2},
			{opts: nil, wantCalls: 3, wantRanks: all, wantSource: catalog.PlanDirect},
		}},
		{"a failed run inserts nothing", []step{
			{opts: &vxml.Options{Cache: true}, fault: "error", wantCalls: 1, wantErr: true},
			{opts: &vxml.Options{Cache: true}, wantCalls: 2, wantRanks: all, wantSource: catalog.PlanDirect},
		}},
		{"a failed run's partial results come back page-sliced, uncached", []step{
			{opts: &vxml.Options{Cache: true, Offset: 1, TopK: 2}, fault: "partial", wantCalls: 1, wantRanks: []int{2, 3}, wantSource: catalog.PlanDirect, wantErr: true},
			{opts: &vxml.Options{Cache: true}, fault: "partial", wantCalls: 2, wantRanks: all, wantSource: catalog.PlanDirect, wantErr: true},
			{opts: &vxml.Options{Offset: 3}, fault: "partial", wantCalls: 3, wantRanks: []int{4, 5}, wantSource: catalog.PlanDirect, wantErr: true},
			{opts: &vxml.Options{Cache: true}, wantCalls: 4, wantRanks: all, wantSource: catalog.PlanDirect},
		}},
		{"a generation bump mid-run discards the insert", []step{
			{opts: &vxml.Options{Cache: true}, fault: "bump", wantCalls: 1, wantRanks: all, wantSource: catalog.PlanDirect},
			{opts: &vxml.Options{Cache: true}, wantCalls: 2, wantRanks: all, wantSource: catalog.PlanDirect},
			{opts: &vxml.Options{Cache: true}, wantCalls: 2, wantRanks: all, wantSource: catalog.PlanCacheHit},
		}},
		{"negative options normalise to one cache key", []step{
			{opts: &vxml.Options{Cache: true, TopK: -3, Offset: -1, Parallelism: -2}, wantCalls: 1, wantRanks: all, wantSource: catalog.PlanDirect,
				wantRunOpts: &vxml.Options{Cache: true, Parallelism: 1}},
			{opts: &vxml.Options{Cache: true}, wantCalls: 1, wantRanks: all, wantSource: catalog.PlanCacheHit},
			{opts: &vxml.Options{Cache: true, TopK: -1, Parallelism: 4}, wantCalls: 1, wantRanks: all, wantSource: catalog.PlanCacheHit},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeRun{cat: catalog.New()}
			for i, st := range tc.steps {
				f.fault = st.fault
				got, stats, err := vxml.PlannedSearch(context.Background(), f.cat, "view text", []string{"Copper"}, st.opts, f.run)
				if st.wantErr != (err != nil) || (err != nil && !errors.Is(err, errFakeRun)) {
					t.Fatalf("step %d: err = %v, want failure %v", i, err, st.wantErr)
				}
				if f.calls != st.wantCalls {
					t.Fatalf("step %d: run invoked %d times so far, want %d", i, f.calls, st.wantCalls)
				}
				var ranks []int
				for _, r := range got {
					ranks = append(ranks, r.Rank)
					if r.TF["Copper"] != r.Rank {
						t.Errorf("step %d: rank %d TF = %v, want the caller's keyword form mapped to %d", i, r.Rank, r.TF, r.Rank)
					}
				}
				if !reflect.DeepEqual(ranks, st.wantRanks) {
					t.Fatalf("step %d: ranks %v, want %v", i, ranks, st.wantRanks)
				}
				if st.wantSource == "" {
					if stats != nil {
						t.Fatalf("step %d: unexpected stats %+v", i, stats)
					}
				} else if stats == nil || stats.PlanSource != st.wantSource {
					t.Fatalf("step %d: stats %+v, want plan source %q", i, stats, st.wantSource)
				}
				if st.wantRunOpts != nil && (f.lastOpts != *st.wantRunOpts || f.lastOffset != st.wantRunOffset) {
					t.Fatalf("step %d: run saw (%+v, offset %d), want (%+v, offset %d)", i, f.lastOpts, f.lastOffset, *st.wantRunOpts, st.wantRunOffset)
				}
			}
		})
	}
}
