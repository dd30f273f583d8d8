// Cancellation contract of the ctx-first API: a canceled or expired
// context unwinds every entry point with a wrapped context error, within
// one work unit, releasing all shard read locks, leaking no pool
// goroutine, and never inserting a partial computation into the
// query-result cache. Run with -race.
package vxml_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vxml"
	"vxml/internal/testkit"
)

// TestPreCanceledContextFailsEveryEntryPoint: a context that is already
// canceled must stop each ctx-taking entry point before it does any work,
// with a wrapped context.Canceled.
func TestPreCanceledContextFailsEveryEntryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := testkit.BuildEqCorpus(t, rng, 6)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, approach := range []vxml.Approach{vxml.Efficient, vxml.Baseline, vxml.GTPTermJoin} {
		_, _, err := db.SearchContext(ctx, view, []string{"copper"}, &vxml.Options{Approach: approach})
		testkit.WantCtxErr(t, fmt.Sprintf("SearchContext approach=%d", approach), err, context.Canceled)
	}
	// A warm cache must not mask the cancellation: the pre-flight runs
	// before the cache lookup.
	if _, _, err := db.Search(view, []string{"copper"}, &vxml.Options{Cache: true}); err != nil {
		t.Fatal(err)
	}
	_, _, err = db.SearchContext(ctx, view, []string{"copper"}, &vxml.Options{Cache: true})
	testkit.WantCtxErr(t, "SearchContext warm cache", err, context.Canceled)
	if _, err := db.DefineViewContext(ctx, testkit.EqViews[0]); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("DefineViewContext: %v", err)
	}
	if _, err := db.ExplainContext(ctx, view, []string{"copper"}); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainContext: %v", err)
	}
	query := `for $r in (for $a in fn:collection("part-*")/books//article return <art>{$a/bdy}</art>)
	          where $r ftcontains('copper') return $r`
	if _, _, err := db.QueryContext(ctx, query, nil); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext: %v", err)
	}
	got := 0
	for _, err := range db.Results(ctx, view, []string{"copper"}, nil) {
		testkit.WantCtxErr(t, "Results", err, context.Canceled)
		got++
	}
	if got != 1 {
		t.Fatalf("pre-canceled Results yielded %d pairs, want exactly one error pair", got)
	}
}

// TestCancelMidStreamStopsDelivery cancels the context between pulls of
// the Results iterator — a deterministic mid-pipeline cancellation point
// (ranking done, materialization under way). The next pull must deliver
// the wrapped error and the sequence must stop.
func TestCancelMidStreamStopsDelivery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := testkit.BuildEqCorpus(t, rng, 12)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var yielded int
		var streamErr error
		for r, err := range db.Results(ctx, view, []string{"copper"}, &vxml.Options{Parallelism: par}) {
			if err != nil {
				streamErr = err
				continue
			}
			yielded++
			if r.XML == "" {
				t.Fatalf("parallelism %d: empty XML at yield %d", par, yielded)
			}
			cancel() // the next pull must observe the cancellation
		}
		cancel()
		if yielded != 1 {
			t.Fatalf("parallelism %d: %d results yielded after mid-stream cancel, want 1", par, yielded)
		}
		testkit.WantCtxErr(t, fmt.Sprintf("parallelism %d mid-stream", par), streamErr, context.Canceled)
	}
}

// TestCancelDuringSearchReleasesEverything cancels contexts while searches
// are genuinely in flight (parallel and sequential, all three pipelines,
// with the cache armed), then verifies: the error wraps context.Canceled,
// no worker goroutine outlives the calls, the shard locks are free (an
// ingest — which needs a write lock — succeeds immediately), and the
// canceled runs poisoned no cache entry.
func TestCancelDuringSearchReleasesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	db := testkit.BuildEqCorpus(t, rng, 30)
	view, err := db.DefineView(testkit.EqViews[1]) // join view: the slowest shape
	if err != nil {
		t.Fatal(err)
	}
	kws := []string{"copper", "quartz"}

	baselineGoroutines := runtime.NumGoroutine()
	canceled, completed, attempt := 0, 0, 0
	for _, opts := range []*vxml.Options{
		{Parallelism: 1, Cache: true},
		{Parallelism: 4, Cache: true},
		{Parallelism: 4, Approach: vxml.Baseline, Cache: true},
		{Parallelism: 1, Approach: vxml.GTPTermJoin, Cache: true},
	} {
		// Shrink the cancel delay until the cancellation lands mid-search;
		// a run that finishes first is fine, it just tries again sooner.
		// Every attempt gets a distinct TopK — and so a distinct cache key —
		// so an attempt that completed (and legitimately cached its entry)
		// cannot hand the next attempt an instant, uncancelable cache hit.
		for delay := 2 * time.Millisecond; delay >= 0; delay /= 4 {
			attempt++
			o := *opts
			o.TopK = attempt
			ctx, cancel := context.WithCancel(context.Background())
			var timer *time.Timer
			if delay == 0 {
				cancel() // a pipeline faster than any timer still must fail
			} else {
				timer = time.AfterFunc(delay, cancel)
			}
			_, _, err := db.SearchContext(ctx, view, kws, &o)
			if timer != nil {
				timer.Stop()
			}
			cancel()
			if err != nil {
				testkit.WantCtxErr(t, fmt.Sprintf("opts %+v delay %v", opts, delay), err, context.Canceled)
				canceled++
				break
			}
			completed++
			if delay == 0 {
				t.Fatalf("opts %+v: search completed even with a pre-canceled context", opts)
			}
		}
	}
	if canceled == 0 {
		t.Fatal("no search was actually canceled")
	}
	testkit.WaitGoroutines(t, "after canceled searches", baselineGoroutines)

	// Only completed attempts may be resident in the cache: a canceled
	// computation must never be inserted.
	if n := db.CacheStats().Entries; n != completed {
		t.Fatalf("%d cache entries resident, want exactly the %d completed searches (canceled: %d)",
			n, completed, canceled)
	}

	// All shard locks must be free: an ingest takes a write lock and would
	// block behind a leaked read lock.
	done := make(chan error, 1)
	go func() { done <- db.Add("post-cancel.xml", "<books><article><bdy>copper</bdy></article></books>") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ingest after canceled searches: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ingest blocked after canceled searches: a shard lock leaked")
	}

	// And the pipeline still computes correct, cacheable results.
	fresh, stats, err := db.SearchContext(context.Background(), view, kws, &vxml.Options{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PlanSource == "cache_hit" {
		t.Fatal("post-cancel search reported a cache hit; canceled runs must not populate the cache")
	}
	again, stats2, err := db.Search(view, kws, &vxml.Options{Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.PlanSource != "cache_hit" {
		t.Fatal("repeat search missed the cache")
	}
	testkit.MustEqualResults(t, "post-cancel cached vs fresh", fresh, again)
}

// TestDeadlineExceededWrapsCorrectly: an expired deadline surfaces as a
// wrapped context.DeadlineExceeded, distinguishable from a cancel. The
// deadline is set firmly in the past, so the test never waits on the
// wall clock.
func TestDeadlineExceededWrapsCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := testkit.BuildEqCorpus(t, rng, 10)
	view, err := db.DefineView(testkit.EqViews[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, _, err = db.SearchContext(ctx, view, []string{"copper"}, nil)
	testkit.WantCtxErr(t, "expired deadline", err, context.DeadlineExceeded)
}
