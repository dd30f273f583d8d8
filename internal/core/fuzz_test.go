package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vxml/internal/baseline"
	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/gtp"
	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/testkit"
	"vxml/internal/xq"
)

// FuzzViewSearch builds a corpus, a view and two keyword sets from the fuzz
// input and requires every path a search can take to give the same answer,
// results and snippets byte for byte: the Efficient pipeline at pools of
// one and four, a per-document view's whole-view copy (outer-binding
// chunks) at both pools, a planned direct search and then a skeleton
// rewrite with the other keywords and the other semantics, ResultsSeq, the
// cluster pair ClusterRank + MaterializeAt at every reported position, and
// the Baseline and GTP comparators. A search that fails must fail on every
// path, and a typed refusal (ErrViewTooLarge, a parse error,
// ErrUnpartitionableView) must be the same refusal everywhere.
//
// An even first byte of data, or an empty view string, generates the view
// from the rest of data, over a corpus also generated from it: parts part-0.xml to part-3.xml and side.xml, whose
// elements are either structural (a, b, c) or leaves (x, y, z) holding a
// small vocabulary of words and numbers, so that comparisons, joins and
// keywords all hit. Otherwise the view string is searched over the testkit
// equivalence corpus (part-NN.xml and authors.xml) seeded from data: the
// seed corpus holds every testkit.EqViews entry and the document-node
// views.
func FuzzViewSearch(f *testing.F) {
	views := append(append([]string{}, testkit.EqViews...),
		testkit.DocNodeJoin,
		testkit.SideEqJoin,
		`for $d in fn:collection("part-*") return $d`,
		`for $d in fn:collection("part-*") return <n>{$d/books//article/fm/tl}</n>`,
		`for $d in fn:collection("part-*") return <n>{$d}, {$d/books//article/fm/tl}</n>`,
		`let $as := fn:collection("part-*")/books//article for $a in $as where $a/fm/yr > 1990 return $a`,
		`for $a in fn:doc(part-00.xml)/books//article return <r>{$a/fm/tl}, {for $b in fn:doc(part-00.xml)/books//article where $b/fm/au = $a/fm/au return $b/fm/yr}</r>`,
		`fn:collection("part-*")/books//article[fm/yr > 1990]`,
	)
	for i, v := range views {
		f.Add([]byte{1, byte(i), byte(3 * i), 0x5a}, v)
	}
	for i := 0; i < 16; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		data := make([]byte, 64+8*i)
		rng.Read(data)
		data[0] &^= 1
		f.Add(data, "")
	}
	f.Fuzz(func(t *testing.T, data []byte, view string) {
		r := &fuzzBytes{data: data}
		e := core.New(store.NewSharded(2))
		var words []string
		if r.next()&1 == 0 || view == "" {
			words = fuzzCorpus(t, r, e)
			view = fuzzView(r, e)
		} else {
			seed := int64(r.next())<<8 | int64(r.next())
			testkit.FillEqCorpus(t, rand.New(rand.NewSource(seed)), 2+r.n(5), engineTarget{e})
			words = testkit.Vocabulary
		}
		kws1, kws2 := fuzzKeywords(r, words), fuzzKeywords(r, words)
		v, err := e.CompileView(view)
		if err != nil {
			// Every path takes the compiled view, so a view the compiler
			// refuses reaches none of them.
			return
		}
		ref1 := checkEveryPath(t, e, v, kws1, core.Options{})
		ref2 := checkEveryPath(t, e, v, kws2, core.Options{Disjunctive: true})

		// A planned search evaluates directly and records the skeleton;
		// the next one, with the other keywords and semantics, rewrites it.
		for i, c := range []struct {
			kws  []string
			opts core.Options
			ref  outcome
		}{
			{kws1, core.Options{Plan: true}, ref1},
			{kws2, core.Options{Plan: true, Disjunctive: true}, ref2},
		} {
			results, stats, err := e.SearchPage(context.Background(), v, c.kws, c.opts, 0)
			got := outcomeOf(results, err)
			mustSameOutcome(t, fmt.Sprintf("planned search %d %v", i, c.kws), c.ref, got, true)
			if err == nil && i == 1 && stats.PlanSource == catalog.PlanDirect {
				t.Fatalf("the second planned search was not served from the skeleton the first recorded")
			}
		}
	})
}

// outcome is what one path delivered: its rows, or its refusal.
type outcome struct {
	rows []row
	err  error
}

func outcomeOf(results []core.Result, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	rows := make([]row, len(results))
	for i, r := range results {
		rows[i] = rowOf(r)
	}
	return outcome{rows: rows}
}

// refusal names an error's class: the typed refusals by name, any other
// failure as "error".
func refusal(err error) string {
	var pe *xq.ParseError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &pe):
		return "parse error"
	case errors.Is(err, qpt.ErrTooManyNodes):
		return "view too large"
	case errors.Is(err, core.ErrUnpartitionableView):
		return "unpartitionable view"
	}
	return "error"
}

// mustSameOutcome holds a path's outcome against the reference's: the
// same refusal, or the same rows (snippets compared when snippets is set;
// the comparators cut none).
func mustSameOutcome(t *testing.T, label string, want, got outcome, snippets bool) {
	t.Helper()
	if refusal(want.err) != refusal(got.err) {
		t.Fatalf("%s: refusal %q (%v), the reference's is %q (%v)", label, refusal(got.err), got.err, refusal(want.err), want.err)
	}
	if want.err != nil {
		return
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d results, the reference has %d", label, len(got.rows), len(want.rows))
	}
	for i, w := range want.rows {
		if !snippets {
			w.snippet = got.rows[i].snippet
		}
		if w != got.rows[i] {
			t.Fatalf("%s: result %d differs\nwant %+v\ngot  %+v", label, i, w, got.rows[i])
		}
	}
}

// checkEveryPath runs one search down every unplanned path and returns the
// reference outcome: the Efficient pipeline at a pool of one.
func checkEveryPath(t *testing.T, e *core.Engine, v *core.View, kws []string, opts core.Options) outcome {
	t.Helper()
	ctx := context.Background()
	label := fmt.Sprintf("%v disjunctive %v", kws, opts.Disjunctive)
	search := func(v *core.View, par int) outcome {
		o := opts
		o.Parallelism = par
		results, _, err := e.SearchPage(ctx, v, kws, o, 0)
		return outcomeOf(results, err)
	}
	ref := search(v, 1)
	mustSameOutcome(t, label+" pool 4", ref, search(v, 4), true)
	if core.RunsPerDocument(v) {
		whole := core.WholeViewCopy(v)
		mustSameOutcome(t, label+" whole view pool 1", ref, search(whole, 1), true)
		mustSameOutcome(t, label+" whole view pool 4", ref, search(whole, 4), true)
	}

	var seq []core.Result
	var seqErr error
	for r, err := range e.ResultsSeq(ctx, v, kws, opts, 0) {
		if err != nil {
			seqErr = err
			break
		}
		seq = append(seq, r)
	}
	mustSameOutcome(t, label+" ResultsSeq", ref, outcomeOf(seq, seqErr), true)

	cluster := clusterOutcome(e, v, kws, opts)
	if v.Deps.Partition() != "" {
		if !errors.Is(cluster.err, core.ErrUnpartitionableView) {
			t.Fatalf("%s: the cluster primitives answered an unpartitionable view: %v", label, cluster.err)
		}
	} else {
		mustSameOutcome(t, label+" cluster", ref, cluster, true)
	}

	base, _, err := baseline.Search(e, v, kws, opts)
	mustSameOutcome(t, label+" baseline", ref, outcomeOf(base, err), false)
	tj, _, err := gtp.Search(e, v, kws, opts)
	mustSameOutcome(t, label+" gtp", ref, outcomeOf(tj, err), false)
	return ref
}

// clusterOutcome answers a search the way a one-node cluster does (see
// clusterRows), materializing every position ClusterRank reports. Both
// primitives must give the same refusal.
func clusterOutcome(e *core.Engine, v *core.View, kws []string, opts core.Options) outcome {
	ctx := context.Background()
	rk, rankErr := e.ClusterRank(ctx, v, kws, opts)
	var positions []int
	if rankErr == nil {
		for _, c := range rk.Candidates {
			positions = append(positions, c.Pos)
		}
	}
	mats, _, matErr := e.MaterializeAt(ctx, v, kws, opts, positions)
	if refusal(rankErr) != refusal(matErr) {
		return outcome{err: fmt.Errorf("ClusterRank refused with %v, MaterializeAt with %v", rankErr, matErr)}
	}
	if rankErr != nil {
		return outcome{err: rankErr}
	}
	if rk.Matched != len(rk.Candidates) || rk.Stats.ViewSize != rk.ViewSize || len(mats) != len(positions) {
		return outcome{err: fmt.Errorf("ClusterRank counters disagree (%+v) or %d of %d positions materialized", rk, len(mats), len(positions))}
	}
	idfs := scoring.IDFsFromCounts(rk.ViewSize, rk.Contains)
	scored := make([]scoring.Scored, len(rk.Candidates))
	for i, c := range rk.Candidates {
		st := scoring.Stats{TFs: c.TFs, ByteLen: c.ByteLen}
		scored[i] = scoring.Scored{Stats: st, Score: scoring.Score(st, idfs), Index: i}
	}
	sort.Slice(scored, func(i, j int) bool { return scoring.Better(scored[i], scored[j]) })
	rows := make([]row, len(scored))
	for i, sc := range scored {
		m := mats[sc.Index]
		rows[i] = row{i + 1, math.Float64bits(sc.Score), fmt.Sprint(sc.Stats.TFs), m.Element.XMLString(""), m.Snippet}
	}
	return outcome{rows: rows}
}

// fuzzBytes reads a fuzz input a byte at a time, then zeros once it runs
// out, so every input, the empty one included, generates something finite.
type fuzzBytes struct {
	data []byte
	at   int
}

func (r *fuzzBytes) next() byte {
	if r.at >= len(r.data) {
		return 0
	}
	r.at++
	return r.data[r.at-1]
}

// n returns a number in [0, k).
func (r *fuzzBytes) n(k int) int { return int(r.next()) % k }

func (r *fuzzBytes) pick(from []string) string { return from[r.n(len(from))] }

// The generated corpus's vocabulary: structural tags, leaf tags and leaf
// values.
var (
	fuzzInner  = []string{"a", "b", "c"}
	fuzzLeaves = []string{"x", "y", "z"}
	fuzzWords  = []string{"copper", "quartz", "mica"}
	fuzzNums   = []string{"1", "2", "3"}
)

// fuzzCorpus adds one to four parts and side.xml to e, each at most six
// elements deep and 24 elements large, and returns the words keywords are
// drawn from.
func fuzzCorpus(t *testing.T, r *fuzzBytes, e *core.Engine) []string {
	t.Helper()
	parts := 1 + r.n(4)
	for i := 0; i <= parts; i++ {
		name := "side.xml"
		if i < parts {
			name = fmt.Sprintf("part-%d.xml", i)
		}
		var b strings.Builder
		budget := 24
		fuzzElement(r, &b, r.pick(fuzzInner), 1, &budget)
		if err := e.AddXML(name, b.String()); err != nil {
			t.Fatal(err)
		}
	}
	return append(append([]string{}, fuzzWords...), fuzzNums...)
}

// fuzzElement writes a structural element at depth: one to three children,
// structural ones while depth and budget allow, leaves otherwise. A leaf x
// holds one or two words, y a number and z either.
func fuzzElement(r *fuzzBytes, b *strings.Builder, tag string, depth int, budget *int) {
	*budget--
	fmt.Fprintf(b, "<%s>", tag)
	for c, kids := 0, 1+r.n(3); c < kids; c++ {
		if depth < 5 && *budget > 0 && r.n(2) == 0 {
			fuzzElement(r, b, r.pick(fuzzInner), depth+1, budget)
			continue
		}
		*budget--
		leaf := r.pick(fuzzLeaves)
		var value string
		switch {
		case leaf == "y" || leaf == "z" && r.n(2) == 0:
			value = r.pick(fuzzNums)
		case r.n(2) == 0:
			value = r.pick(fuzzWords) + " " + r.pick(fuzzWords)
		default:
			value = r.pick(fuzzWords)
		}
		fmt.Fprintf(b, "<%s>%s</%s>", leaf, value, leaf)
	}
	fmt.Fprintf(b, "</%s>", tag)
}

// fuzzKeywords draws one to three keywords from words.
func fuzzKeywords(r *fuzzBytes, words []string) []string {
	kws := make([]string, 1+r.n(3))
	for i := range kws {
		kws[i] = r.pick(words)
	}
	return kws
}

// fuzzView generates a view over the generated corpus: a FLWOR opening
// with a for (over elements or bound document nodes), with two for clauses
// joined on a value, or with a let; or a bare path.
func fuzzView(r *fuzzBytes, e *core.Engine) string {
	g := &viewGen{r: r}
	parts := 0
	for e.HasDocument(fmt.Sprintf("part-%d.xml", parts)) {
		parts++
	}
	// A view names the parts through the pattern or through literals,
	// never both: the compiler refuses a literal the pattern matches.
	g.refs = []string{`fn:doc(side.xml)`, `fn:collection("part-*")`, `fn:collection("part-*")`}
	if r.n(3) == 0 {
		g.refs = g.refs[:1]
		for i := 0; i < parts; i++ {
			g.refs = append(g.refs, fmt.Sprintf("fn:doc(part-%d.xml)", i))
		}
	}
	outer := r.pick(g.refs)
	switch r.n(6) {
	case 0: // bound document nodes
		return fmt.Sprintf("for $v in %s %s return %s", outer, g.where("$v", true), g.ret("$v", outer, 0))
	case 1: // let first
		return fmt.Sprintf("let $s := %s%s for $v in $s %s return %s", outer, g.path(), g.where("$v", false), g.ret("$v", outer, 0))
	case 2: // bare path
		return outer + g.path()
	case 3: // two for clauses: a hash join with another reference
		side := r.pick(g.refs)
		return fmt.Sprintf("for $v in %s%s for $w in %s%s where $w%s = $v%s return <p>{$v%s}, {$w%s}</p>",
			outer, g.path(), side, g.path(), g.leafPath(), g.leafPath(), g.leafPath(), g.leafPath())
	}
	return fmt.Sprintf("for $v in %s%s %s return %s", outer, g.path(), g.where("$v", false), g.ret("$v", outer, 0))
}

// viewGen generates the parts of a view; refs are the document references
// it may name.
type viewGen struct {
	r    *fuzzBytes
	refs []string
}

// path is one to three steps below a reference, over structural tags, each
// step possibly filtered by a predicate on a leaf child.
func (g *viewGen) path() string {
	var b strings.Builder
	for i, n := 0, 1+g.r.n(3); i < n; i++ {
		b.WriteString(g.r.pick([]string{"/", "//", "//"}))
		b.WriteString(g.r.pick(fuzzInner))
		if g.r.n(4) == 0 {
			b.WriteString("[" + g.cond(".", false) + "]")
		}
	}
	return b.String()
}

// leafPath is a path from a structural element down to a leaf.
func (g *viewGen) leafPath() string {
	switch g.r.n(3) {
	case 0:
		return "/" + g.r.pick(fuzzLeaves)
	case 1:
		return "/" + g.r.pick(fuzzInner) + "/" + g.r.pick(fuzzLeaves)
	}
	return "//" + g.r.pick(fuzzLeaves)
}

// cond is a comparison of a leaf below v: with a number, with a word, or
// with the leaves of another reference (a value join).
func (g *viewGen) cond(v string, docNode bool) string {
	lp := v + g.leafPath()
	switch {
	case docNode:
		lp = v + "//" + g.r.pick(fuzzLeaves)
	case v == "." && !strings.HasPrefix(lp, ".//"): // "./x" is written "x"
		lp = lp[2:]
	}
	switch g.r.n(4) {
	case 0:
		return fmt.Sprintf("%s %s %s", lp, g.r.pick([]string{"=", "<", ">"}), g.r.pick(fuzzNums))
	case 1:
		return fmt.Sprintf("%s = %q", lp, g.r.pick(fuzzWords))
	case 2:
		return fmt.Sprintf("%s = %s//%s", lp, g.r.pick(g.refs), g.r.pick(fuzzLeaves))
	}
	return lp
}

// where is an optional where clause over v.
func (g *viewGen) where(v string, docNode bool) string {
	if g.r.n(2) == 0 {
		return ""
	}
	return "where " + g.cond(v, docNode)
}

// ret is a return expression over v, whose reference is outer: v itself, a
// leaf below it, a constructor nesting up to two more, or a nested FLWOR
// joining another reference (outer itself makes it a self-join) on a value.
func (g *viewGen) ret(v, outer string, depth int) string {
	switch g.r.n(5) {
	case 0:
		return v
	case 1:
		return v + g.leafPath()
	case 2:
		if depth < 2 {
			return fmt.Sprintf("<r%d>{%s}, {%s}</r%d>", depth, g.ret(v, outer, depth+1), g.ret(v, outer, depth+1), depth)
		}
		return v
	case 3:
		if depth < 2 {
			return fmt.Sprintf("<n><m>{%s}</m></n>", g.ret(v, outer, depth+1))
		}
		return v + g.leafPath()
	}
	ref := g.r.pick(append([]string{outer}, g.refs...))
	return fmt.Sprintf("<j>{for $w%d in %s%s where $w%d%s = %s%s return $w%d%s}</j>",
		depth, ref, g.path(), depth, g.leafPath(), v, g.leafPath(), depth, g.leafPath())
}
