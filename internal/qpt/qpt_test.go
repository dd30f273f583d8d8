package qpt

import (
	"strings"
	"testing"

	"vxml/internal/pathindex"
	"vxml/internal/xq"
)

// figure2View is the view definition of the paper's running example
// (Figure 2, the $view binding).
const figure2View = `
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <bookrevs>
         <book> {$book/title} </book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

func generate(t *testing.T, view string) []*QPT {
	t.Helper()
	q, err := xq.Parse(view)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	qpts, err := Generate(q.Body, q.Functions)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return qpts
}

// TestFigure6a checks the generated QPTs against the paper's Figure 6(a).
func TestFigure6a(t *testing.T) {
	qpts := generate(t, figure2View)
	if len(qpts) != 2 {
		t.Fatalf("expected 2 QPTs, got %d", len(qpts))
	}
	books, reviews := qpts[0], qpts[1]
	if books.Doc != "books.xml" || reviews.Doc != "reviews.xml" {
		t.Fatalf("docs = %s, %s", books.Doc, reviews.Doc)
	}
	wantBooks := `doc(books.xml)
  /books m
    //book m
      /year m v pred(> 1995)
      /title o c
      /isbn o v
`
	if got := books.String(); got != wantBooks {
		t.Errorf("books QPT:\n%swant:\n%s", got, wantBooks)
	}
	wantReviews := `doc(reviews.xml)
  /reviews m
    //review m
      /isbn m v
      /content m c
`
	if got := reviews.String(); got != wantReviews {
		t.Errorf("reviews QPT:\n%swant:\n%s", got, wantReviews)
	}
}

func TestSelectionOnlyView(t *testing.T) {
	qpts := generate(t, `
for $b in fn:doc(books.xml)/books//book
where $b/year > 1995
return $b`)
	if len(qpts) != 1 {
		t.Fatalf("QPTs = %d", len(qpts))
	}
	want := `doc(books.xml)
  /books m
    //book m c
      /year m v pred(> 1995)
`
	if got := qpts[0].String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

func TestFilterPredicateView(t *testing.T) {
	qpts := generate(t, `fn:doc(books.xml)/books/book[year > 1995]/title`)
	want := `doc(books.xml)
  /books m
    /book m
      /year m v pred(> 1995)
      /title m c
`
	if got := qpts[0].String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

func TestExistencePredicate(t *testing.T) {
	qpts := generate(t, `fn:doc(books.xml)/books/book[isbn]`)
	want := `doc(books.xml)
  /books m
    /book m c
      /isbn m
`
	if got := qpts[0].String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

func TestSequenceReturnOptionalizes(t *testing.T) {
	qpts := generate(t, `
for $b in fn:doc(books.xml)/books/book
return $b/title, $b/year`)
	want := `doc(books.xml)
  /books m
    /book m
      /title o c
      /year o c
`
	if got := qpts[0].String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

func TestPlainReturnStaysMandatory(t *testing.T) {
	// A plain `return $b/title` keeps the edge mandatory: bindings without
	// a title contribute nothing to the view, so pruning them is safe
	// (Lemma D.3).
	qpts := generate(t, `
for $b in fn:doc(books.xml)/books/book
return $b/title`)
	want := `doc(books.xml)
  /books m
    /book m
      /title m c
`
	if got := qpts[0].String(); got != want {
		t.Errorf("got:\n%swant:\n%s", got, want)
	}
}

func TestNestedFLWORLevels(t *testing.T) {
	qpts := generate(t, `
for $j in fn:doc(inex.xml)/journals//journal
return <jr>
  {$j/title}
  {for $a in fn:doc(inex.xml)/journals//journal/article
   where $a/jid = $j/jid
   return $a/title}
</jr>`)
	if len(qpts) != 1 {
		t.Fatalf("QPTs = %d (expected 1, both paths on inex.xml)", len(qpts))
	}
	got := qpts[0].String()
	for _, want := range []string{"//journal m", "/jid o v", "/title o c", "/article m", "/jid m v", "/title m c"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestFunctionExpansion(t *testing.T) {
	qpts := generate(t, `
declare function revsFor($i) {
  for $r in fn:doc(reviews.xml)/reviews//review
  where $r/isbn = $i
  return $r/content
}
for $b in fn:doc(books.xml)/books//book
return <e>{$b/title}{revsFor($b/isbn)}</e>`)
	if len(qpts) != 2 {
		t.Fatalf("QPTs = %d", len(qpts))
	}
	books := qpts[0].String()
	if !strings.Contains(books, "/isbn o v") {
		t.Errorf("isbn arg should be optional+v:\n%s", books)
	}
	reviews := qpts[1].String()
	if !strings.Contains(reviews, "/isbn m v") || !strings.Contains(reviews, "/content m c") {
		t.Errorf("reviews QPT:\n%s", reviews)
	}
}

func TestCondExprUnion(t *testing.T) {
	qpts := generate(t, `
for $b in fn:doc(books.xml)/books/book
return if $b/year > 2000 then $b/title else $b/isbn`)
	got := qpts[0].String()
	for _, want := range []string{"/year", "pred(> 2000)", "/title", "/isbn"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	// condition contributes no content
	if strings.Contains(got, "/year m v c") {
		t.Errorf("condition leaf must not be 'c':\n%s", got)
	}
}

func TestLiteralOnLeftFlips(t *testing.T) {
	qpts := generate(t, `
for $b in fn:doc(books.xml)/books/book
where 1995 < $b/year
return $b/title`)
	got := qpts[0].String()
	if !strings.Contains(got, "pred(> 1995)") {
		t.Errorf("flipped predicate missing:\n%s", got)
	}
}

func TestStepsFromRoot(t *testing.T) {
	qpts := generate(t, figure2View)
	var isbn *Node
	for _, n := range qpts[0].Nodes() {
		if n.Tag == "isbn" {
			isbn = n
		}
	}
	if isbn == nil {
		t.Fatal("no isbn node")
	}
	steps := isbn.StepsFromRoot()
	if got := pathindex.FormatSteps(steps); got != "/books//book/isbn" {
		t.Errorf("StepsFromRoot = %q", got)
	}
}

func TestNodesAndDepth(t *testing.T) {
	qpts := generate(t, figure2View)
	books := qpts[0]
	if got := len(books.Nodes()); got != 5 {
		t.Errorf("Nodes = %d", got)
	}
	if got := books.Depth(); got != 3 {
		t.Errorf("Depth = %d", got)
	}
}

func TestHasMandatoryChild(t *testing.T) {
	qpts := generate(t, figure2View)
	for _, n := range qpts[0].Nodes() {
		switch n.Tag {
		case "books", "book":
			if !n.HasMandatoryChild() {
				t.Errorf("%s should have a mandatory child", n.Tag)
			}
		case "year", "title", "isbn":
			if n.HasMandatoryChild() {
				t.Errorf("%s should be a leaf", n.Tag)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"$free/path",                  // unresolved variable
		"for $v in $free return $v/x", // free variable binding
		"for $b in fn:doc(b.xml)/a where $b ftcontains('x') return $b", // ftcontains in view
		"unknownFn($x)",
	}
	for _, view := range cases {
		q, err := xq.Parse(view)
		if err != nil {
			continue
		}
		if _, err := Generate(q.Body, q.Functions); err == nil {
			t.Errorf("Generate(%q): expected error", view)
		}
	}
}

func TestNonLeafPredicateRejected(t *testing.T) {
	// `.` predicates attach to the filtered node itself; when that node
	// has QPT children the view needs a string-value predicate on a
	// non-leaf element, which the paper's grammar excludes (§3.1).
	q := xq.MustParse(`fn:doc(b.xml)/books/book[. = 'x']/title`)
	if _, err := Generate(q.Body, q.Functions); err == nil {
		t.Error("expected non-leaf predicate rejection")
	}
	// On a leaf it is fine.
	q = xq.MustParse(`fn:doc(b.xml)/books/book/title[. = 'x']`)
	if _, err := Generate(q.Body, q.Functions); err != nil {
		t.Errorf("leaf dot predicate should be accepted: %v", err)
	}
}

func TestMergeSharedPrefixes(t *testing.T) {
	// Two paths into the same doc share the /books/book prefix.
	qpts := generate(t, `
for $b in fn:doc(books.xml)/books/book
where $b/year > 1995
return <e>{$b/title}{$b/publisher}</e>`)
	if len(qpts) != 1 {
		t.Fatalf("QPTs = %d", len(qpts))
	}
	got := qpts[0].String()
	if strings.Count(got, "/book m") != 1 {
		t.Errorf("book chain not merged:\n%s", got)
	}
	for _, want := range []string{"/year m v pred(> 1995)", "/title o c", "/publisher o c"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestContentFollowsBindingChains: a returned variable bound over another
// variable marks the path the chain starts from as content, however many
// steps and predicates hang off the variables on the way.
func TestContentFollowsBindingChains(t *testing.T) {
	qpts := generate(t, `let $as := fn:doc(d.xml)/books//article
		for $a in $as where $a/yr > 1990 return $a`)
	want := `doc(d.xml)
  /books m
    //article m c
      /yr m v pred(> 1990)
`
	if got := qpts[0].String(); got != want {
		t.Errorf("QPT:\n%swant:\n%s", got, want)
	}
}

// TestMergeKeepsRequirementsApart: two paths into one document unify only
// where they require the same. $d/books, which the where clause tests,
// must not take on $d/books/a's mandatory a: a books without an a still
// satisfies the where.
func TestMergeKeepsRequirementsApart(t *testing.T) {
	qpts := generate(t, `for $d in fn:collection("p*")
		return <n>{$d/books/a}, {for $u in fn:doc(u.xml)//u where $d/books return $u}</n>`)
	want := `doc(p*)
  /books o
    /a m c
  /books o
`
	if got := qpts[0].String(); got != want {
		t.Errorf("QPT:\n%swant:\n%s", got, want)
	}
}

// TestSequenceVariableUsesStayOptional: a let variable is its whole
// sequence. `where $s//yr > 1990` asks that some item have such a yr, and
// `for $a in $s` returns every item, so the where must not prune the items
// that lack one.
func TestSequenceVariableUsesStayOptional(t *testing.T) {
	qpts := generate(t, `let $s := fn:doc(d.xml)//article
		for $a in $s where $s//yr > 1990 return $a`)
	want := `doc(d.xml)
  //article m c
    //yr o v pred(> 1990)
`
	if got := qpts[0].String(); got != want {
		t.Errorf("QPT:\n%swant:\n%s", got, want)
	}
}
