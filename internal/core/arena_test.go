package core_test

import (
	"context"
	"fmt"
	"iter"
	"testing"

	"vxml/internal/catalog"
	"vxml/internal/core"
)

// arenaCorpus is shelfCorpus plus side.xml, whose x elements sit under
// three different parents: a QPT whose first edge is //x makes its PDT
// several top-level elements under the arena's ID-less top node.
func arenaCorpus(t *testing.T) *core.Engine {
	t.Helper()
	e := shelfCorpus(t)
	if err := e.AddXML("side.xml", `<a><x>copper one</x><b><x>quartz two</x><x>copper three</x></b><c><x>copper quartz</x></c></a>`); err != nil {
		t.Fatal(err)
	}
	return e
}

// arenaSideViews read side documents, whose PDTs every direct pass generates
// into pooled arenas: a whole-view join over a literal outer document
// (outer-binding chunks), a per-document view joining a side document, a
// //x-first view over side.xml, and a let-first view (evaluated whole,
// collected in result chunks). The last four construct elements at
// several levels, in the pooled slabs of the pass's evaluators: a
// join4-shaped view, its constructors inside constructors inside hash
// joins; a per-document view whose side join indexes elements it
// constructs, so its workers keep their slabs from unit to unit
// (xqeval.Evaluator.KeepsConstructed); a let-first view with nested
// constructors; and a view whose outer for clause binds constructed
// elements, which every binding chunk reads from the whole-view
// evaluation's slab.
var arenaSideViews = []string{
	`for $a in fn:doc(shelf.xml)/books//article
	 return <r>{$a/bdy}, {for $p in fn:collection("part-*")/books//article where $p/fm/yr = $a/fm/yr return $p/fm/tl}</r>`,
	`for $a in fn:collection("part-*")/books//article
	 return <r>{$a/fm/tl}, {for $s in fn:doc(shelf.xml)/books//article where $s/fm/yr = $a/fm/yr return $s/bdy}</r>`,
	`for $x in fn:doc(side.xml)//x return <r>{$x}</r>`,
	`let $as := fn:doc(shelf.xml)/books//article for $a in $as where $a/fm/yr > 1983 return <r>{$a/fm/tl}, {$a/bdy}</r>`,
	`for $a in fn:doc(shelf.xml)/books//article
	 return <arec><aname>{$a/fm/tl}</aname>,
	   {for $p in fn:collection("part-*")/books//article where $p/fm/yr = $a/fm/yr
	    return <art><t>{$p/fm/tl}</t>, {$p/bdy},
	      {for $q in fn:doc(shelf.xml)/books//article where $q/fm/tl = $p/fm/tl return <m><y>{$q/fm/yr}</y></m>}</art>}</arec>`,
	`for $a in fn:collection("part-*")/books//article
	 return <r>{$a/fm/tl}, {for $b in (for $s in fn:doc(shelf.xml)/books//article return <w>{$s/fm}, {$s/bdy}</w>)
	   where $b/fm/yr = $a/fm/yr return <h>{$b/bdy}</h>}</r>`,
	`let $as := fn:doc(shelf.xml)/books//article for $a in $as where $a/fm/yr > 1983
	 return <r><h><t>{$a/fm/tl}</t></h>, {$a/bdy}, <n>{<m>{$a/fm/yr}</m>}</n></r>`,
	`for $w in (for $s in fn:doc(shelf.xml)/books//article return <w>{$s}</w>) return <r>{$w}</r>`,
}

// TestPooledArenasNeverReachResults: every direct pass generates its PDTs
// into pooled arenas and constructs elements in pooled slabs, and releases
// them when it ends, its workers rewinding their slabs after every item
// too; Arena.Clear and Slab.Rewind zero the released nodes, so a result
// still pointing into pooled memory reads zeroed nodes. Each case
// runs in two halves with searches of the other views in between, at
// pools of one and four, and every answer must be byte-identical to
// Baseline's:
//   - a planned search records the view's skeleton, and a later one with
//     other keywords is served from it (PlanRewritten);
//   - a ResultsSeq is pulled halfway, then finished;
//   - ClusterRank ranks, then MaterializeAt expands its winners.
func TestPooledArenasNeverReachResults(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := arenaCorpus(t) // a fresh catalog: no view's skeleton yet
		views := make([]*core.View, len(arenaSideViews))
		for i, text := range arenaSideViews {
			v, err := e.CompileView(text)
			if err != nil {
				t.Fatal(err)
			}
			views[i] = v
		}
		opts := core.Options{Parallelism: par, Disjunctive: true}
		planned := opts
		planned.Plan = true
		kws, other := []string{"copper"}, []string{"quartz", "memo"}
		// others searches every view but vi, so that their passes take
		// and release the pooled arenas between a case's two halves.
		others := func(vi int) {
			for j, v := range views {
				if j != vi {
					statRows(t, e, v, other, opts)
				}
			}
		}
		for vi, v := range views {
			label := fmt.Sprintf("view %d pool %d", vi, par)
			want := baselineRows(t, e, v, kws, opts)
			if len(want) < 2 {
				t.Fatalf("%s: Baseline has %d results; the corpus no longer exercises the view", label, len(want))
			}

			got, stats := statRows(t, e, v, kws, planned)
			if stats.PlanSource != catalog.PlanDirect {
				t.Fatalf("%s: the first planned search ran %s", label, stats.PlanSource)
			}
			mustMatchReference(t, label+" planned", want, got)
			others(vi)
			got, stats = statRows(t, e, v, other, planned)
			if stats.PlanSource != catalog.PlanRewritten {
				t.Fatalf("%s: the second planned search ran %s", label, stats.PlanSource)
			}
			mustMatchReference(t, label+" skeleton", baselineRows(t, e, v, other, opts), got)

			next, stop := iter.Pull2(e.ResultsSeq(context.Background(), v, kws, opts, 0))
			var seq []row
			for len(seq) < len(want)/2 {
				r, err, ok := next()
				if !ok || err != nil {
					t.Fatalf("%s: ResultsSeq ended after %d results: %v", label, len(seq), err)
				}
				seq = append(seq, rowOf(r))
			}
			others(vi)
			for r, err, ok := next(); ok; r, err, ok = next() {
				if err != nil {
					t.Fatal(err)
				}
				seq = append(seq, rowOf(r))
			}
			stop()
			mustMatchReference(t, label+" ResultsSeq", want, seq)

			if v.Deps.Partition() == "" {
				mustMatchReference(t, label+" cluster", want, clusterRowsBetween(t, e, v, kws, opts, func() { others(vi) }))
			}
		}
	}
}
