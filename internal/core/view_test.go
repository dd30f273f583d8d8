package core_test

import (
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"vxml"
	"vxml/internal/core"
	"vxml/internal/testkit"
)

// TestViewDeps pins what Compile records about the documents a view
// reads: one ref per QPT, the outer binding's ref, and per-ref uses. The
// coordinator routes from these three fields, so a self-join must count
// its outer ref twice and a let-first or bare-path view must have no
// outer ref.
func TestViewDeps(t *testing.T) {
	cases := []struct {
		name  string
		view  string
		refs  []string
		outer string
		uses  map[string]int
	}{
		{"selection",
			`for $a in fn:doc(part-00.xml)/books//article where $a/fm/yr > 1990 return $a`,
			[]string{"part-00.xml"}, "part-00.xml", map[string]int{"part-00.xml": 1}},
		{"two-document join",
			`for $b in fn:doc(books.xml)/books//book
			 return <r>{$b/title}, {for $r in fn:doc(reviews.xml)/reviews//review
			   where $r/isbn = $b/isbn return $r/content}</r>`,
			[]string{"books.xml", "reviews.xml"}, "books.xml", map[string]int{"books.xml": 1, "reviews.xml": 1}},
		{"self-join",
			`for $a in fn:doc(part-a.xml)/books//article
			 return <r>{$a/fm/tl}, {for $b in fn:doc(part-a.xml)/books//article
			   where $b/fm/yr = $a/fm/yr return $b/fm/au}</r>`,
			[]string{"part-a.xml"}, "part-a.xml", map[string]int{"part-a.xml": 2}},
		{"collection pattern",
			`for $a in fn:collection("part-*")/books//article[fm/yr > 1990] return <r>{$a/bdy}</r>`,
			[]string{"part-*"}, "part-*", map[string]int{"part-*": 1}},
		{"let first",
			`let $d := fn:doc(books.xml)/books for $b in $d//book return $b/title`,
			[]string{"books.xml"}, "", map[string]int{"books.xml": 1}},
		{"ref only in a function body",
			`declare function revs($i) {
			   for $r in fn:doc(reviews.xml)/reviews//review where $r/isbn = $i return $r/content
			 }
			 for $b in fn:doc(books.xml)/books//book return <r>{revs($b/isbn)}</r>`,
			[]string{"books.xml", "reviews.xml"}, "books.xml", map[string]int{"books.xml": 1, "reviews.xml": 1}},
		{"ref only in an uncalled function",
			`declare function other() { fn:doc(books.xml)/books }
			 for $b in fn:doc(books.xml)/books//book return $b`,
			[]string{"books.xml"}, "books.xml", map[string]int{"books.xml": 2}},
		{"bare path",
			`fn:doc(articles.xml)/articles/article[yr > 1995]`,
			[]string{"articles.xml"}, "", map[string]int{"articles.xml": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := core.Compile(tc.view)
			if err != nil {
				t.Fatal(err)
			}
			d := v.Deps
			if !slices.Equal(d.Refs, tc.refs) {
				t.Errorf("Refs = %q, want %q", d.Refs, tc.refs)
			}
			for i, q := range v.QPTs {
				if d.Refs[i] != q.Doc {
					t.Errorf("Refs[%d] = %q, QPT reads %q", i, d.Refs[i], q.Doc)
				}
			}
			if d.Outer != tc.outer {
				t.Errorf("Outer = %q, want %q", d.Outer, tc.outer)
			}
			if !maps.Equal(d.Uses, tc.uses) {
				t.Errorf("Uses = %v, want %v", d.Uses, tc.uses)
			}
		})
	}
}

// TestViewCheckRefs: a literal reference the registry does not know is
// ErrUnknownDocument; a collection pattern is never checked.
func TestViewCheckRefs(t *testing.T) {
	v, err := core.Compile(`for $a in fn:collection("part-*")/books//article
		return <r>{$a/bdy}, {for $u in fn:doc(authors.xml)/authors//author
		  where $u/name = $a/fm/au return $u/affil}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	var asked []string
	err = v.CheckRefs(func(name string) bool {
		asked = append(asked, name)
		return false
	})
	if !errors.Is(err, core.ErrUnknownDocument) || !slices.Equal(asked, []string{"authors.xml"}) {
		t.Errorf("CheckRefs = %v after asking %q, want ErrUnknownDocument after asking only authors.xml", err, asked)
	}
	if err := v.CheckRefs(func(string) bool { return true }); err != nil {
		t.Errorf("CheckRefs with every document present: %v", err)
	}
}

// TestCompileRejectsDoublingView: Compile stops a view whose function
// calls expand past the QPT node bound at once, with the typed error.
func TestCompileRejectsDoublingView(t *testing.T) {
	start := time.Now()
	_, err := core.Compile(testkit.DoublingView(20))
	if !errors.Is(err, vxml.ErrViewTooLarge) {
		t.Fatalf("Compile = %v, want ErrViewTooLarge", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("rejecting the doubling view took %v", d)
	}
}
