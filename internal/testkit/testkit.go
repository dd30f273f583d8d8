// Package testkit holds the randomized-corpus generators and
// oracle-comparison helpers shared by the equivalence suites: the root
// package's parallel/mutation/stream/cache tests and internal/cluster's
// distributed byte-identity tests all build corpora and compare ranked
// result lists through this one vocabulary, so "byte-identical" means the
// same thing everywhere it is asserted.
//
// The helpers are deliberately engine-agnostic: corpus builders write
// through the narrow Target/Mutator interfaces (satisfied by
// *vxml.Database directly and by thin adapters over a cluster
// coordinator), and the comparators work on []vxml.Result no matter which
// delivery path produced it.
package testkit

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/inex"
)

// Target is anything documents can be loaded into. *vxml.Database
// satisfies it directly; distributed tests adapt a coordinator.
type Target interface {
	Add(name, xml string) error
}

// Mutator extends Target with the rest of the document lifecycle.
type Mutator interface {
	Target
	Replace(name, xml string) error
	Delete(name string) error
}

// Vocabulary deliberately overlaps the query keywords so term frequencies
// vary per article; "copper" and "quartz" are the planted search terms.
var Vocabulary = []string{
	"copper", "quartz", "basalt", "granite", "mica", "shale",
	"copper", "quartz", "system", "survey", "archive", "ledger",
}

// RandomArticle builds one <article> with a title, author, year and a
// word-soup body drawn from the vocabulary.
func RandomArticle(rng *rand.Rand, id int) string {
	var body strings.Builder
	for i, n := 0, 3+rng.Intn(12); i < n; i++ {
		if i > 0 {
			body.WriteByte(' ')
		}
		body.WriteString(Vocabulary[rng.Intn(len(Vocabulary))])
	}
	return fmt.Sprintf(
		`<article><fm><tl>title %d %s</tl><au>author%d</au><yr>%d</yr></fm><bdy>%s</bdy></article>`,
		id, Vocabulary[rng.Intn(len(Vocabulary))], rng.Intn(6), 1988+rng.Intn(12), body.String())
}

// RandomPartDoc builds one <books> document of 1..4 random articles.
func RandomPartDoc(rng *rand.Rand, salt int) string {
	var articles strings.Builder
	for a, n := 0, 1+rng.Intn(4); a < n; a++ {
		articles.WriteString(RandomArticle(rng, salt*100+a))
	}
	return "<books>" + articles.String() + "</books>"
}

// AuthorsXML renders the fixed six-author catalog document the join views
// reference, salted with vocabulary words so it scores like the rest of
// the corpus.
func AuthorsXML(rng *rand.Rand) string {
	var authors strings.Builder
	authors.WriteString("<authors>")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&authors, `<author><name>author%d</name><affil>inst %s %d</affil></author>`,
			i, Vocabulary[rng.Intn(len(Vocabulary))], i)
	}
	authors.WriteString("</authors>")
	return authors.String()
}

// FillEqCorpus loads nDocs "part-NN.xml" documents plus one fixed
// authors.xml into the target. Roughly every fifth part document is an
// exact copy of an earlier one, planting guaranteed score ties that
// exercise the deterministic tie-break.
func FillEqCorpus(t testing.TB, rng *rand.Rand, nDocs int, into Target) {
	t.Helper()
	var prev string
	for d := 0; d < nDocs; d++ {
		var doc string
		if d > 0 && d%5 == 4 {
			doc = prev // exact duplicate: same articles, same scores
		} else {
			var articles strings.Builder
			for a, n := 0, 1+rng.Intn(6); a < n; a++ {
				articles.WriteString(RandomArticle(rng, d*100+a))
			}
			doc = "<books>" + articles.String() + "</books>"
		}
		prev = doc
		if err := into.Add(fmt.Sprintf("part-%02d.xml", d), doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := into.Add("authors.xml", AuthorsXML(rng)); err != nil {
		t.Fatal(err)
	}
}

// BuildEqCorpus fills a fresh single-process database (FillEqCorpus into
// vxml.Open).
func BuildEqCorpus(t testing.TB, rng *rand.Rand, nDocs int) *vxml.Database {
	t.Helper()
	db := vxml.Open()
	FillEqCorpus(t, rng, nDocs, db)
	return db
}

// EqViews are the view shapes each corpus is searched through: a
// collection selection, a collection view joined to a fixed document, a
// single-document selection, and a single-clause equality where (a
// whole-expression evaluation — the Baseline comparator's — takes the
// evaluator's hash-join shortcut, the Efficient pipeline partitions the
// loop — outputs must still match exactly).
var EqViews = []string{
	`for $a in fn:collection("part-*")/books//article
	 where $a/fm/yr > 1993
	 return <art>{$a/fm/tl}, {$a/bdy}</art>`,

	`for $a in fn:collection("part-*")/books//article
	 return <rec><t>{$a/fm/tl}</t>,
	   {for $u in fn:doc(authors.xml)/authors//author
	    where $u/name = $a/fm/au
	    return <inst>{$u/affil}</inst>},
	   {$a/bdy}</rec>`,

	`for $a in fn:doc(part-00.xml)/books//article
	 where $a/fm/yr > 1990
	 return <art>{$a/fm/tl}, {$a/bdy}</art>`,

	`for $a in fn:collection("part-*")/books//article
	 where $a/fm/au = "author2"
	 return <art>{$a/fm/tl}, {$a/bdy}</art>`,
}

// DocNodeJoin binds each collection document's node and joins it on a
// value to the fixed authors document: a per-document view with a side
// document whose outer bindings are no base elements.
const DocNodeJoin = `for $d in fn:collection("part-*")
	return <n>{$d/books//article/fm/tl},
	  {for $u in fn:doc(authors.xml)/authors//author
	   where $u/name = $d/books//article/fm/au
	   return <inst>{$u/affil}</inst>}</n>`

// SideEqJoin is a single-clause collection view whose where compares each
// article with the fixed authors document: per document, its only for
// clause ranges over the unit's own articles, so a hash join over that
// clause would be an index of one unit's document.
const SideEqJoin = `for $a in fn:collection("part-*")/books//article
	where $a/fm/au = fn:doc(authors.xml)/authors//author/name
	return <art>{$a/fm/tl}, {$a/bdy}</art>`

// MutViews are the shapes the lifecycle trials are searched through: a
// collection selection (replacements re-enter enumeration at their new
// position) and a collection-to-fixed-document join (exercises the
// evaluator's join paths over a mutated catalog).
var MutViews = []string{
	`for $a in fn:collection("part-*")/books//article
	 where $a/fm/yr > 1990
	 return <art>{$a/fm/tl}, {$a/bdy}</art>`,

	`for $a in fn:collection("part-*")/books//article
	 return <rec><t>{$a/fm/tl}</t>,
	   {for $u in fn:doc(authors.xml)/authors//author
	    where $u/name = $a/fm/au
	    return <inst>{$u/affil}</inst>},
	   {$a/bdy}</rec>`,
}

// DoublingView is a view whose QPT expansion doubles with every level:
// function f<i> calls f<i-1> twice, and the view calls f<levels>. At 20
// levels the text is about a kilobyte and asks for a million pattern
// nodes, far past qpt.MaxNodes.
func DoublingView(levels int) string {
	var b strings.Builder
	b.WriteString("declare function f0($x) { $x/title }\n")
	for i := 1; i <= levels; i++ {
		fmt.Fprintf(&b, "declare function f%d($x) { (f%d($x), f%d($x)) }\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "for $b in fn:doc(books.xml)//book return <r>{f%d($b)}</r>", levels)
	return b.String()
}

// KeywordsFor draws 1-3 of the planted query keywords.
func KeywordsFor(rng *rand.Rand) []string {
	all := []string{"copper", "quartz", "survey"}
	return all[:1+rng.Intn(len(all))]
}

// MutateRandomly drives the target through 12..30 random lifecycle
// operations over a bounded name pool, guaranteeing at least one replace
// and one delete, and returns the final content of every name still
// present. seed, when non-nil, names the part documents the target already
// holds (with their content), so replaces and deletes hit the existing
// corpus and generated names never collide with it.
func MutateRandomly(t testing.TB, db Mutator, rng *rand.Rand, seed map[string]string) map[string]string {
	t.Helper()
	final := map[string]string{}
	var present []string
	for _, name := range slices.Sorted(maps.Keys(seed)) {
		final[name] = seed[name]
		present = append(present, name)
	}
	addDoc := func() {
		if len(present) >= 8 {
			return
		}
		name := fmt.Sprintf("part-%02d.xml", len(final)+len(present)*17+rng.Intn(90))
		if _, ok := final[name]; ok {
			return
		}
		doc := RandomPartDoc(rng, len(present))
		if err := db.Add(name, doc); err != nil {
			t.Fatal(err)
		}
		final[name] = doc
		present = append(present, name)
	}
	replaceDoc := func() {
		if len(present) == 0 {
			return
		}
		name := present[rng.Intn(len(present))]
		doc := RandomPartDoc(rng, 50+rng.Intn(50))
		if err := db.Replace(name, doc); err != nil {
			t.Fatal(err)
		}
		final[name] = doc
	}
	deleteDoc := func() {
		if len(present) < 2 {
			return
		}
		i := rng.Intn(len(present))
		name := present[i]
		if err := db.Delete(name); err != nil {
			t.Fatal(err)
		}
		delete(final, name)
		present = append(present[:i], present[i+1:]...)
	}
	addDoc()
	addDoc()
	for op, n := 0, 12+rng.Intn(18); op < n; op++ {
		switch rng.Intn(4) {
		case 0, 1:
			addDoc()
		case 2:
			replaceDoc()
		default:
			deleteDoc()
		}
	}
	replaceDoc() // guarantee the lifecycle actually ran
	deleteDoc()
	return final
}

// SearchSetting is one (approach, parallelism, cache) cell an equivalence
// must hold over. The comparator pipelines run sequentially by
// construction, so only Efficient varies parallelism; they also report no
// snippets, by design, which Snippets records for the comparison.
type SearchSetting struct {
	Label    string
	Approach vxml.Approach
	Parallel int
	Cache    bool
	Snippets bool
}

// MutSettings enumerates every setting cell the lifecycle equivalence
// runs under.
var MutSettings = []SearchSetting{
	{"efficient/seq/nocache", vxml.Efficient, 1, false, true},
	{"efficient/par/nocache", vxml.Efficient, 0, false, true},
	{"efficient/seq/cache", vxml.Efficient, 1, true, true},
	{"efficient/par/cache", vxml.Efficient, 0, true, true},
	{"baseline/nocache", vxml.Baseline, 1, false, false},
	{"baseline/cache", vxml.Baseline, 1, true, false},
	{"gtp/nocache", vxml.GTPTermJoin, 1, false, false},
	{"gtp/cache", vxml.GTPTermJoin, 1, true, false},
}

// MustEqualResults fails unless a and b are byte-identical result lists.
func MustEqualResults(t testing.TB, label string, a, b []vxml.Result) {
	t.Helper()
	MustEqualResultsOpt(t, label, a, b, true)
}

// MustEqualResultsOpt optionally skips the snippet comparison (the
// Baseline and GTP comparators report no snippets, by design).
func MustEqualResultsOpt(t testing.TB, label string, a, b []vxml.Result, snippets bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Score != b[i].Score {
			t.Fatalf("%s: result %d rank/score (%d, %v) vs (%d, %v)", label, i, a[i].Rank, a[i].Score, b[i].Rank, b[i].Score)
		}
		if a[i].XML != b[i].XML {
			t.Fatalf("%s: result %d XML differs:\n%s\nvs\n%s", label, i, a[i].XML, b[i].XML)
		}
		if snippets && a[i].Snippet != b[i].Snippet {
			t.Fatalf("%s: result %d snippet %q vs %q", label, i, a[i].Snippet, b[i].Snippet)
		}
		if len(a[i].TF) != len(b[i].TF) {
			t.Fatalf("%s: result %d TF sizes differ", label, i)
		}
		for k, v := range a[i].TF {
			if b[i].TF[k] != v {
				t.Fatalf("%s: result %d TF[%q] = %d vs %d", label, i, k, v, b[i].TF[k])
			}
		}
	}
}

// RenderResults fingerprints a ranked result list byte-for-byte (rank,
// score, materialized XML, snippet; TF maps are compared separately with
// SameTF).
func RenderResults(results []vxml.Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "#%d %.12f\n", r.Rank, r.Score)
		b.WriteString(r.XML)
		b.WriteByte('\n')
		b.WriteString(r.Snippet)
		b.WriteByte('\n')
	}
	return b.String()
}

// SameTF reports whether two equally long result lists carry identical
// TF maps.
func SameTF(a, b []vxml.Result) bool {
	for i := range a {
		if len(a[i].TF) != len(b[i].TF) {
			return false
		}
		for k, v := range a[i].TF {
			if b[i].TF[k] != v {
				return false
			}
		}
	}
	return true
}

// CollectResults drains a Results sequence, failing the test on any
// mid-stream error.
func CollectResults(t testing.TB, label string, seq iter.Seq2[vxml.Result, error]) []vxml.Result {
	t.Helper()
	var out []vxml.Result
	for r, err := range seq {
		if err != nil {
			t.Fatalf("%s: streaming: %v", label, err)
		}
		out = append(out, r)
	}
	return out
}

// CollectPages pages through a ranking pageSize results at a time via the
// fetch callback and concatenates, failing if the pagination never
// terminates. fetch receives base with Offset/TopK set for one page.
func CollectPages(t testing.TB, label string, base vxml.Options, pageSize int, fetch func(o *vxml.Options) ([]vxml.Result, error)) []vxml.Result {
	t.Helper()
	var out []vxml.Result
	for page := 0; ; page++ {
		if page > 1000 {
			t.Fatalf("%s: pagination did not terminate", label)
		}
		o := base
		o.Offset, o.TopK = page*pageSize, pageSize
		results, err := fetch(&o)
		if err != nil {
			t.Fatalf("%s page %d: %v", label, page, err)
		}
		out = append(out, results...)
		if len(results) < pageSize {
			return out
		}
	}
}

// KeywordPool mixes corpus-frequent terms (inex vocabulary roots and the
// benchkit selectivity sets) with words that may not occur at all, so
// properties drawn from it are exercised on empty, selective and broad
// result sets alike.
var KeywordPool = []string{
	"system", "data", "model", "network", "algorithm", "query", "index",
	"thomas", "control", "fuzzy", "neural", "parallel", "ieee", "computing",
	"moore", "burnett", "zebra", "qwxyz",
}

// RandomKeywords draws 1-3 distinct keywords from KeywordPool.
func RandomKeywords(rng *rand.Rand) []string {
	n := 1 + rng.Intn(3)
	picks := rng.Perm(len(KeywordPool))[:n]
	kws := make([]string, n)
	for i, p := range picks {
		kws[i] = KeywordPool[p]
	}
	return kws
}

// CorpusDB loads the generated benchkit corpus into a Database and
// compiles the experiment view.
func CorpusDB(t testing.TB, seed int64) (*vxml.Database, *vxml.View) {
	t.Helper()
	p := benchkit.Default()
	p.UnitBytes = 16 << 10
	p.SizeUnits = 2
	p.Seed = seed
	corpus := inex.Generate(inex.Options{
		TargetBytes: p.TargetBytes(),
		Seed:        p.Seed,
		Partitions:  p.JoinPartitions,
		ElemSizeX:   p.ElemSizeX,
	})
	db := vxml.Open()
	for _, doc := range corpus.Docs() {
		db.MustAdd(doc.Name, doc.Root.XMLString(""))
	}
	view, err := db.DefineView(p.ViewText())
	if err != nil {
		t.Fatal(err)
	}
	return db, view
}

// WantCtxErr asserts err wraps exactly the expected context error.
func WantCtxErr(t testing.TB, label string, err, want error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected an error wrapping %v, got nil", label, want)
	}
	if !errors.Is(err, want) {
		t.Fatalf("%s: error %q does not wrap %v", label, err, want)
	}
	if errors.Is(err, context.Canceled) && errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s: error %q wraps both context errors", label, err)
	}
}

// WaitGoroutines waits for the goroutine count to settle back to at most
// limit (worker pools drain cooperatively, so a just-canceled search may
// briefly still be winding down).
func WaitGoroutines(t testing.TB, label string, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines still alive (limit %d)\n%s",
				label, n, limit, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
