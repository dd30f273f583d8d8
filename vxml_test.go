package vxml

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const booksXML = `<books>
  <book><isbn>111</isbn><title>XML Web Services</title><year>2004</year></book>
  <book><isbn>222</isbn><title>Artificial Intelligence</title><year>2002</year></book>
  <book><isbn>333</isbn><title>Old Tome</title><year>1990</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111</isbn><content>all about search</content></review>
  <review><isbn>222</isbn><content>xml search topics</content></review>
</reviews>`

const viewText = `
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <bookrevs>
         <book>{$book/title}</book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

func openTestDB(t *testing.T) *Database {
	t.Helper()
	db := Open()
	if err := db.Add("books.xml", booksXML); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("reviews.xml", reviewsXML); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPISearch(t *testing.T) {
	db := openTestDB(t)
	view, err := db.DefineView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := db.Search(view, []string{"XML", "Search"}, &Options{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.TF["XML"] == 0 || r.TF["Search"] == 0 {
			t.Errorf("conjunctive result missing keyword: %+v", r.TF)
		}
		if !strings.HasPrefix(r.XML, "<bookrevs>") {
			t.Errorf("XML = %.60s", r.XML)
		}
	}
	if stats.ViewSize != 2 || stats.Total <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPublicAPIApproachesAgree(t *testing.T) {
	db := openTestDB(t)
	view, err := db.DefineView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	var rendered []string
	for _, ap := range []Approach{Efficient, Baseline, GTPTermJoin} {
		results, _, err := db.Search(view, []string{"search"}, &Options{Approach: ap})
		if err != nil {
			t.Fatalf("approach %d: %v", ap, err)
		}
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r.XML)
		}
		rendered = append(rendered, b.String())
	}
	if rendered[0] != rendered[1] || rendered[0] != rendered[2] {
		t.Error("approaches returned different results")
	}
}

// TestNumericEqualityMatchesEverySpelling: `yr = 7` selects by value, so an
// element spelled 07 or 7.0 is in the view as surely as one spelled 7 — in
// the index-only pipeline as in the materializing one (Theorem 4.1). A
// literal that is no number still selects by spelling, and a join of two
// paths compares by the same rule.
func TestNumericEqualityMatchesEverySpelling(t *testing.T) {
	db := Open()
	if err := db.Add("items.xml", `<items>
  <item><yr>7</yr><name>plain seven</name></item>
  <item><yr>07</yr><name>padded seven</name></item>
  <item><yr>7.0</yr><name>decimal seven</name></item>
  <item><yr>8</yr><name>eight</name></item>
  <item><yr>vii</yr><name>roman seven</name></item>
</items>`); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("keys.xml", `<keys><key><yr>7.00</yr></key></keys>`); err != nil {
		t.Fatal(err)
	}
	views := map[string]int{ // view -> names in the results
		`for $k in fn:doc(keys.xml)/keys//key
		 return <hit>{for $i in fn:doc(items.xml)/items//item where $i/yr = $k/yr return $i/name}</hit>`: 3,
	}
	for lit, want := range map[string]int{"7": 3, "7.00": 3, "8": 1, "9": 0, `"vii"`: 1, `"viii"`: 0} {
		views[`for $i in fn:doc(items.xml)/items//item where $i/yr = `+lit+` return <hit>{$i/name}</hit>`] = want
	}
	for text, want := range views {
		view, err := db.DefineView(text)
		if err != nil {
			t.Fatal(err)
		}
		var rendered []string
		for _, ap := range []Approach{Efficient, Baseline, GTPTermJoin} {
			results, _, err := db.Search(view, []string{"seven", "eight"}, &Options{Approach: ap, Disjunctive: true})
			if err != nil {
				t.Fatalf("%s, approach %d: %v", text, ap, err)
			}
			var b strings.Builder
			for _, r := range results {
				b.WriteString(r.XML)
			}
			if got := strings.Count(b.String(), "<name>"); got != want {
				t.Errorf("%s, approach %d: %d names, want %d", text, ap, got, want)
			}
			rendered = append(rendered, b.String())
		}
		if rendered[0] != rendered[1] || rendered[0] != rendered[2] {
			t.Errorf("%s: approaches returned different results", text)
		}
	}
}

func TestPublicAPIQueryFigure2(t *testing.T) {
	db := openTestDB(t)
	results, _, err := db.Query(`
let $view := `+viewText+`
for $r in $view
where $r ftcontains('XML' & 'Search')
return $r`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.DefineView("for $x in fn:doc(nope.xml)/a return $x"); err == nil {
		t.Error("unknown doc should fail")
	}
	if _, _, err := db.Query("fn:doc(books.xml)/books", nil); err == nil {
		t.Error("non-keyword query should fail")
	}
	view, err := db.DefineView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Search(view, []string{"x"}, &Options{Approach: Approach(99)}); err == nil {
		t.Error("unknown approach should fail")
	}
}

func TestPublicAPIExplain(t *testing.T) {
	db := openTestDB(t)
	view, err := db.DefineView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	plan := db.Explain(view, []string{"xml"})
	for _, want := range []string{"QPT for books.xml", "path index probes", "inverted list probes: xml"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q", want)
		}
	}
}

func TestPublicAPISnippets(t *testing.T) {
	db := openTestDB(t)
	view, err := db.DefineView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := db.Search(view, []string{"search"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || !strings.Contains(strings.ToLower(results[0].Snippet), "search") {
		t.Errorf("snippet missing: %+v", results)
	}
}

// TestViewRefusesInvalidUTF8: a view whose string literal holds invalid
// UTF-8 is refused at its first bad byte, as a document is. Such a literal
// used to reach search, where lowercasing for the snippet widened each bad
// byte to a 3-byte U+FFFD and the hit's offset ran past the value: the
// search panicked.
func TestViewRefusesInvalidUTF8(t *testing.T) {
	db := Open()
	if err := db.Add("d.xml", "<r><p>a needle in the data</p></r>"); err != nil {
		t.Fatal(err)
	}
	text := `for $p in fn:doc(d.xml)/r/p return <hit>{"` + strings.Repeat("\xff", 60) + ` needle here"}, {$p}</hit>`
	view, err := db.DefineView(text)
	var pe *ParseError
	if !errors.As(err, &pe) {
		if err == nil {
			_, _, err = db.Search(view, []string{"needle"}, &Options{TopK: 1})
		}
		t.Fatalf("DefineView, then Search: %v; want a *ParseError from DefineView", err)
	}
	if want := strings.IndexByte(text, 0xff); pe.Pos != want {
		t.Errorf("ParseError.Pos = %d, want %d (the first bad byte)", pe.Pos, want)
	}
}

func TestPublicAPIMetadata(t *testing.T) {
	db := openTestDB(t)
	names := db.DocumentNames()
	if len(names) != 2 || names[0] != "books.xml" {
		t.Errorf("names = %v", names)
	}
	if db.TotalBytes() == 0 {
		t.Error("TotalBytes = 0")
	}
	view, _ := db.DefineView(viewText)
	if !strings.Contains(view.Definition(), "bookrevs") {
		t.Error("Definition() lost text")
	}
}

// TestSearchKeywordBound: a search may name at most 64 keywords. One more
// fails with ErrInvalidOptions on every pipeline and delivery path, before
// any per-keyword work; 64 are served.
func TestSearchKeywordBound(t *testing.T) {
	db := openTestDB(t)
	view, err := db.DefineView(viewText)
	if err != nil {
		t.Fatal(err)
	}
	keywords := func(n int) []string {
		kws := make([]string, n)
		for i := range kws {
			kws[i] = fmt.Sprintf("k%d", i)
		}
		kws[0] = "search"
		return kws
	}
	for _, opts := range []Options{
		{Approach: Efficient, Disjunctive: true},
		{Approach: Efficient, Disjunctive: true, Cache: true},
		{Approach: Baseline, Disjunctive: true},
		{Approach: GTPTermJoin, Disjunctive: true},
	} {
		if _, _, err := db.Search(view, keywords(65), &opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%+v: 65 keywords: err = %v, want ErrInvalidOptions", opts, err)
		}
		for _, err := range db.Results(context.Background(), view, keywords(65), &opts) {
			if !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("%+v: streamed 65 keywords: err = %v, want ErrInvalidOptions", opts, err)
			}
			break
		}
		if results, _, err := db.Search(view, keywords(64), &opts); err != nil || len(results) == 0 {
			t.Errorf("%+v: 64 keywords: %d results, err %v", opts, len(results), err)
		}
	}
	if _, err := db.ExplainContext(context.Background(), view, keywords(65)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("explain with 65 keywords: err = %v, want ErrInvalidOptions", err)
	}
}
