package xqeval

import (
	"strings"
	"testing"

	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// TestSlabConstructsAsHeap: constructing in a slab gives what constructing
// on the heap gives, across node chunks (1,500 elements), across child
// chunks and past one (1,500 children of one element, more than a chunk
// holds), and again after a Rewind, which reuses the chunks without
// growing the slab and leaves the elements it held zeroed.
func TestSlabConstructsAsHeap(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 1500; i++ {
		b.WriteString("<a><y>1995</y></a>")
	}
	b.WriteString("</r>")
	doc, err := xmltree.ParseString(b.String(), "r.xml", 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := MapCatalog{"r.xml": doc}
	slab := new(Slab)
	for _, query := range []string{
		`for $a in fn:doc(r.xml)/r/a return <x><z>{$a/y}</z>, {$a}</x>`,
		`<all>{fn:doc(r.xml)/r/a}, {fn:doc(r.xml)/r/a/y}</all>`,
	} {
		q := xq.MustParse(query)
		want, err := New(cat, q.Functions).Eval(q.Body, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev := New(cat, q.Functions)
		ev.SetSlab(slab)
		var grown int
		for round := 0; round < 2; round++ {
			got, err := ev.Eval(q.Body, nil)
			if err != nil {
				t.Fatal(err)
			}
			if show(got) != show(want) {
				t.Fatalf("%s, round %d: the slab's elements differ from the heap's", query, round)
			}
			if round == 0 {
				grown = slab.Cap()
			} else if slab.Cap() != grown {
				t.Fatalf("%s: the slab grew from %d to %d after a rewind", query, grown, slab.Cap())
			}
			slab.Rewind()
			for _, item := range got {
				if n := item.(*xmltree.Node); n.Tag != "" || n.Children != nil {
					t.Fatalf("%s: a rewound element reads <%s> with %d children", query, n.Tag, len(n.Children))
				}
			}
		}
	}
}
