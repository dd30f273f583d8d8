package xqeval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// randomJoinCatalog builds randomized two-document corpora for join
// equivalence properties.
func randomJoinCatalog(r *rand.Rand) MapCatalog {
	nA, nB := 2+r.Intn(8), 2+r.Intn(12)
	var a strings.Builder
	a.WriteString("<as>")
	for i := 0; i < nA; i++ {
		fmt.Fprintf(&a, "<a><k>k%d</k><v>va%d</v></a>", r.Intn(6), i)
	}
	a.WriteString("</as>")
	var b strings.Builder
	b.WriteString("<bs>")
	for i := 0; i < nB; i++ {
		// some b elements have multiple keys, some none
		b.WriteString("<b>")
		for j := 0; j < r.Intn(3); j++ {
			fmt.Fprintf(&b, "<k>k%d</k>", r.Intn(6))
		}
		fmt.Fprintf(&b, "<v>vb%d</v></b>", i)
		b.WriteString("")
	}
	b.WriteString("</bs>")
	docA, err := xmltree.ParseString(a.String(), "a.xml", 1)
	if err != nil {
		panic(err)
	}
	docB, err := xmltree.ParseString(b.String(), "b.xml", 2)
	if err != nil {
		panic(err)
	}
	return MapCatalog{"a.xml": docA, "b.xml": docB}
}

const joinQuery = `
for $a in fn:doc(a.xml)/as/a
return <r>{$a/v}
  {for $b in fn:doc(b.xml)/bs/b
   where $b/k = $a/k
   return $b/v}
</r>`

// TestQuickHashJoinEqualsNestedLoop: the equality-join fast path must be
// semantically invisible, including duplicate keys, multi-valued keys and
// keyless elements.
func TestQuickHashJoinEqualsNestedLoop(t *testing.T) {
	q := xq.MustParse(joinQuery)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cat := randomJoinCatalog(r)
		render := func(hash bool) string {
			ev := New(cat, q.Functions)
			ev.HashJoin = hash
			out, err := ev.EvalQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, item := range out {
				if n, ok := item.(*xmltree.Node); ok {
					n.WriteXML(&b, "") //nolint:errcheck
				}
			}
			return b.String()
		}
		return render(true) == render(false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFilterEqualsWhere: [pred] filters and where clauses agree.
func TestQuickFilterEqualsWhere(t *testing.T) {
	filterQ := xq.MustParse(`fn:doc(a.xml)/as/a[k = 'k3']/v`)
	whereQ := xq.MustParse(`for $a in fn:doc(a.xml)/as/a where $a/k = 'k3' return $a/v`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cat := randomJoinCatalog(r)
		ev := New(cat, nil)
		a, err := ev.Eval(filterQ.Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ev.Eval(whereQ.Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if Atomize(a[i]) != Atomize(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickStepsMatchPathIndexSemantics: evaluator path navigation agrees
// with a document walk using the same axis semantics.
func TestQuickStepsMatchWalk(t *testing.T) {
	q := xq.MustParse(`fn:doc(b.xml)/bs//k`)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cat := randomJoinCatalog(r)
		ev := New(cat, nil)
		out, err := ev.Eval(q.Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, c := range cat["b.xml"].Root.Children {
			c.Walk(func(n *xmltree.Node) {
				if n.Tag == "k" {
					want = append(want, n.Value)
				}
			})
		}
		if len(out) != len(want) {
			return false
		}
		for i := range out {
			if Atomize(out[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
