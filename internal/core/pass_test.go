package core_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/testkit"
)

// parkingCtx parks every Err call from its n-th on until release is
// closed, closing parked at the first: a search held at a deterministic
// point inside its view-output pass.
type parkingCtx struct {
	context.Context
	n       atomic.Int64
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (c *parkingCtx) Err() error {
	if c.n.Add(-1) < 0 {
		c.once.Do(func() { close(c.parked) })
		<-c.release
	}
	return nil
}

// TestMutationDoesNotWaitForPass parks a search inside its view-output pass
// and replaces one of its candidate documents meanwhile. A search holds
// its shard read locks only while it plans, so the Replace returns at
// once; the parked search still answers from the corpus as of its
// planning instant, and a planned search's skeleton, computed across the
// Replace, is refused by the catalog. It covers a per-document collection
// view (units), a literal-outer join (outer-binding chunks) and a planned
// direct search, at pools of one and four.
func TestMutationDoesNotWaitForPass(t *testing.T) {
	const literalOuterJoin = `for $a in fn:doc(part-00.xml)/books//article
	 return <rec>{$a/fm/tl},
	   {for $u in fn:doc(authors.xml)/authors//author
	    where $u/name = $a/fm/au
	    return <inst>{$u/affil}</inst>}</rec>`
	kws := []string{"copper"}
	for _, tc := range []struct {
		name, view, replaced string
		plan                 bool
	}{
		{"per-document units", testkit.EqViews[1], "part-03.xml", false},
		{"literal-outer join", literalOuterJoin, "part-00.xml", false},
		{"planned direct", testkit.EqViews[0], "part-03.xml", true},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s pool %d", tc.name, par), func(t *testing.T) {
				opts := core.Options{Parallelism: par, Plan: tc.plan}
				// Count a whole search's checks on a twin engine, so the
				// engine under test has no skeleton yet: at K 1 all but the
				// first and the last are the pass's.
				twin := eqEngine(t, 71, 10)
				tv, err := twin.CompileView(tc.view)
				if err != nil {
					t.Fatal(err)
				}
				const uncut = 1 << 40
				probe := &countdownCtx{Context: context.Background()}
				probe.n.Store(uncut)
				k1 := opts
				k1.K = 1
				if _, _, err := twin.SearchPage(probe, tv, kws, k1, 0); err != nil {
					t.Fatal(err)
				}
				checks := uncut - probe.n.Load()
				if checks < 4 {
					t.Fatalf("a search checks its context only %d times", checks)
				}

				e := eqEngine(t, 71, 10)
				v, err := e.CompileView(tc.view)
				if err != nil {
					t.Fatal(err)
				}
				want := searchRows(t, e, v, kws, core.Options{Parallelism: par}, 0)
				if len(want) == 0 {
					t.Fatal("the search matches nothing")
				}
				ctx := &parkingCtx{Context: context.Background(), parked: make(chan struct{}), release: make(chan struct{})}
				ctx.n.Store(checks / 2)
				type answer struct {
					rows []row
					err  error
				}
				done := make(chan answer, 1)
				go func() {
					results, _, err := e.SearchPage(ctx, v, kws, opts, 0)
					var rows []row
					for _, r := range results {
						rows = append(rows, rowOf(r))
					}
					done <- answer{rows, err}
				}()
				select {
				case <-ctx.parked:
				case got := <-done:
					t.Fatalf("the search finished without parking in its pass: %d rows, %v", len(got.rows), got.err)
				}
				replaced := make(chan error, 1)
				go func() {
					replaced <- e.ReplaceXML(tc.replaced, `<books><article><fm><tl>copper fresh</tl><au>author1</au><yr>2001</yr></fm><bdy>copper</bdy></article></books>`)
				}()
				select {
				case err := <-replaced:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					close(ctx.release)
					<-done
					t.Fatal("a Replace of a candidate waited for a search's view-output pass")
				}
				close(ctx.release)
				got := <-done
				if got.err != nil {
					t.Fatal(got.err)
				}
				mustEqualRows(t, "the parked search", want, got.rows)
				if tc.plan {
					if n := e.Catalog.Stats().Skeletons; n != 0 {
						t.Fatalf("a skeleton computed across the Replace was stored (%d resident)", n)
					}
				}
				fresh, stats := statRows(t, e, v, kws, opts)
				if tc.plan && stats.PlanSource != catalog.PlanDirect {
					t.Fatalf("the next planned search answered from %q, want %q", stats.PlanSource, catalog.PlanDirect)
				}
				if slices.Equal(fresh, want) {
					t.Fatal("the Replace did not change the answer")
				}
				for i := range fresh {
					fresh[i].snippet = "" // Baseline cuts no snippets
				}
				mustEqualRows(t, "a search after the Replace vs Baseline", baselineRows(t, e, v, kws, core.Options{}), fresh)
			})
		}
	}
}
