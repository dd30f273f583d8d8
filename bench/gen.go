package main

// Input generators. Everything the library under test sees — documents,
// view texts, keyword lists — is made here from the seed, so the parent
// commit and a change are always measured on identical inputs. The shapes
// follow the repo's own corpora (the INEX-like DTD of the paper's §5 and
// the part-* collection documents) but nothing is imported from them: the
// ROADMAP plans edits to those packages and they must never edit the
// benchmark.

import (
	"fmt"
	"math/rand"
	"strings"
)

// doc is one generated document: the name it is registered under and its
// XML text.
type doc struct {
	name string
	xml  string
}

// Marker keywords planted at calibrated rates (paper Table 1): low
// selectivity means frequent, high means rare.
var (
	lowMarkers    = []string{"ieee", "computing"}
	mediumMarkers = []string{"thomas", "control", "fuzzy", "neural", "parallel"}
	highMarkers   = []string{"moore", "burnett"}
)

// vocabulary is the body-text word list: 34 roots x 8 suffixes.
var vocabulary = func() []string {
	roots := []string{
		"system", "data", "model", "network", "algorithm", "query", "index",
		"process", "result", "method", "value", "structure", "node", "graph",
		"path", "tree", "cache", "logic", "signal", "design", "theory",
		"analysis", "storage", "protocol", "circuit", "filter", "kernel",
		"vector", "matrix", "layer", "agent", "schema", "stream", "buffer",
	}
	suffixes := []string{"", "s", "ing", "ed", "al", "ic", "ion", "er"}
	words := make([]string, 0, len(roots)*len(suffixes))
	for _, r := range roots {
		for _, s := range suffixes {
			words = append(words, r+s)
		}
	}
	return words
}()

// minerals are the frequent words of the part-* documents; most articles
// contain each of them.
var minerals = []string{"copper", "quartz", "basalt", "granite", "mica", "shale", "survey", "archive", "ledger", "gneiss"}

// textGen emits pseudo-natural text.
type textGen struct{ r *rand.Rand }

// sentence writes n head-heavy vocabulary words and then, at the
// calibrated rates, one planted marker: low ~1/8 of sentences, each medium
// marker ~1/100, high ~1/800.
func (t textGen) sentence(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		idx := t.r.Intn(len(vocabulary))
		if t.r.Intn(3) > 0 {
			idx = t.r.Intn(1 + len(vocabulary)/8)
		}
		b.WriteString(vocabulary[idx])
	}
	switch roll := t.r.Intn(8000); {
	case roll < 1000:
		b.WriteByte(' ')
		b.WriteString(lowMarkers[t.r.Intn(len(lowMarkers))])
	case roll < 1400:
		b.WriteByte(' ')
		b.WriteString(mediumMarkers[t.r.Intn(len(mediumMarkers))])
	case roll < 1410:
		b.WriteByte(' ')
		b.WriteString(highMarkers[t.r.Intn(len(highMarkers))])
	}
}

func (t textGen) leaf(b *strings.Builder, tag string, words int) {
	b.WriteString("<" + tag + ">")
	t.sentence(b, words)
	b.WriteString("</" + tag + ">")
}

// inexSizes are the element counts of an INEX-like corpus, a pure function
// of the target size so every seed builds the same shape.
type inexSizes struct {
	articles, authors, affils, journals int
}

const (
	inexTopics    = 40
	inexVenues    = 16
	inexCountries = 8
)

func inexSizesFor(targetBytes int) inexSizes {
	s := inexSizes{articles: max(8, targetBytes/780)}
	s.authors = max(4, s.articles/8)
	s.affils = s.authors/2 + 1
	s.journals = s.articles/50 + 1
	return s
}

// authorsXML builds authors.xml; direct_join regenerates it (another seed,
// same element counts) as its churn document.
func authorsXML(seed int64, sz inexSizes) string {
	t := textGen{rand.New(rand.NewSource(seed))}
	var b strings.Builder
	b.WriteString("<authors>")
	for i := 0; i < sz.authors; i++ {
		fmt.Fprintf(&b, "<author><name>author_%d</name><affid>aff%d</affid>", i, i%sz.affils)
		t.leaf(&b, "bio", 6)
		b.WriteString("</author>")
	}
	b.WriteString("</authors>")
	return b.String()
}

// inexCorpus builds the INEX-like corpus of the paper's experiments:
// inex.xml (books/journal/article with front matter, body sections and
// back-matter references) plus the joinable authors, affils, topics,
// venues and countries documents.
func inexCorpus(seed int64, targetBytes int) []doc {
	sz := inexSizesFor(targetBytes)
	r := rand.New(rand.NewSource(seed))
	t := textGen{r}

	var affils, countries, topics, venues strings.Builder
	affils.WriteString("<affils>")
	for i := 0; i < sz.affils; i++ {
		fmt.Fprintf(&affils, "<affil><affid>aff%d</affid>", i)
		t.leaf(&affils, "instname", 3)
		fmt.Fprintf(&affils, "<country>country%d</country></affil>", i%inexCountries)
	}
	affils.WriteString("</affils>")
	countries.WriteString("<countries>")
	for i := 0; i < inexCountries; i++ {
		fmt.Fprintf(&countries, "<country><cname>country%d</cname>", i)
		t.leaf(&countries, "region", 2)
		countries.WriteString("</country>")
	}
	countries.WriteString("</countries>")
	topics.WriteString("<topics>")
	for i := 0; i < inexTopics; i++ {
		fmt.Fprintf(&topics, "<topic><tname>topic%d</tname>", i)
		t.leaf(&topics, "desc", 8)
		topics.WriteString("</topic>")
	}
	topics.WriteString("</topics>")
	venues.WriteString("<venues>")
	for i := 0; i < inexVenues; i++ {
		fmt.Fprintf(&venues, "<venue><vid>v%d</vid>", i)
		t.leaf(&venues, "vname", 3)
		t.leaf(&venues, "city", 1)
		venues.WriteString("</venue>")
	}
	venues.WriteString("</venues>")

	var b strings.Builder
	b.WriteString("<books>")
	perJournal := max(1, sz.articles/sz.journals)
	num := 0
	for j := 0; j < sz.journals; j++ {
		b.WriteString("<journal>")
		t.leaf(&b, "title", 4)
		for a := 0; a < perJournal; a++ {
			fmt.Fprintf(&b, "<article><fno>fno%06d</fno>", num)
			if r.Intn(2) == 0 {
				fmt.Fprintf(&b, "<doi>10.1000/%06d</doi>", num)
			}
			fmt.Fprintf(&b, "<vid>v%d</vid><fm>", r.Intn(inexVenues))
			if r.Intn(3) == 0 {
				t.leaf(&b, "hdr", 3)
			}
			t.leaf(&b, "tl", 5)
			fmt.Fprintf(&b, "<yr>%d</yr>", 1988+r.Intn(20))
			for k, n := 0, 1+r.Intn(3); k < n; k++ {
				fmt.Fprintf(&b, "<au>author_%d</au>", r.Intn(sz.authors))
			}
			for k, n := 0, 1+r.Intn(2); k < n; k++ {
				fmt.Fprintf(&b, "<kwd>topic%d</kwd>", r.Intn(inexTopics))
			}
			b.WriteString("</fm><bdy>")
			for s := 0; s < 2; s++ {
				b.WriteString("<sec>")
				t.leaf(&b, "st", 3)
				t.leaf(&b, "p", 22)
				b.WriteString("</sec>")
			}
			// References repeat the au/tl/yr tags outside the fm context,
			// as real INEX articles do: path indices tell them apart.
			b.WriteString("</bdy><bm>")
			for k := 0; k < 3; k++ {
				fmt.Fprintf(&b, "<ref><au>author_%d</au>", r.Intn(sz.authors))
				t.leaf(&b, "tl", 4)
				fmt.Fprintf(&b, "<yr>%d</yr></ref>", 1970+r.Intn(35))
			}
			b.WriteString("</bm></article>")
			num++
		}
		b.WriteString("</journal>")
	}
	b.WriteString("</books>")

	return []doc{
		{"inex.xml", b.String()},
		{"authors.xml", authorsXML(seed+1, sz)},
		{"affils.xml", affils.String()},
		{"topics.xml", topics.String()},
		{"venues.xml", venues.String()},
		{"countries.xml", countries.String()},
	}
}

// partXML builds one part-style document: a books root holding `articles`
// articles whose bodies mix the frequent minerals (a quarter of the words)
// with the wide vocabulary, so keyword pairs range from "most articles"
// to "one article in five". All randomness comes from seed, so a churn
// replacement (another seed, same article count) has the same shape.
func partXML(seed int64, part, articles int) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("<books>")
	for a := 0; a < articles; a++ {
		fmt.Fprintf(&b, "<article><fm><tl>study %d of part %d</tl><au>author%d</au><yr>%d</yr></fm><bdy>",
			a, part, r.Intn(8), 1985+r.Intn(16))
		for w, n := 0, 45+r.Intn(60); w < n; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			if r.Intn(4) == 0 {
				b.WriteString(minerals[r.Intn(len(minerals))])
			} else {
				b.WriteString(vocabulary[r.Intn(len(vocabulary))])
			}
		}
		b.WriteString("</bdy></article>")
	}
	b.WriteString("</books>")
	return b.String()
}

// booksReviewsXML builds the paper's running example (Figure 1): nBooks
// books and twice as many reviews, a tenth of which dangle.
func booksReviewsXML(seed int64, nBooks int) (books, reviews string) {
	r := rand.New(rand.NewSource(seed))
	t := textGen{r}
	isbn := func(i int) string { return fmt.Sprintf("%03d-%02d-%04d", i, i%97, i*7%9973) }
	var b, rv strings.Builder
	b.WriteString("<books>")
	for i := 0; i < nBooks; i++ {
		fmt.Fprintf(&b, "<book><isbn>%s</isbn>", isbn(i))
		t.leaf(&b, "title", 4)
		t.leaf(&b, "publisher", 2)
		fmt.Fprintf(&b, "<year>%d</year></book>", 1985+r.Intn(25))
	}
	b.WriteString("</books>")
	rv.WriteString("<reviews>")
	for i := 0; i < 2*nBooks; i++ {
		fmt.Fprintf(&rv, "<review><isbn>%s</isbn><rate>%d</rate>", isbn(r.Intn(nBooks+nBooks/10+1)), 1+r.Intn(5))
		t.leaf(&rv, "content", 12)
		fmt.Fprintf(&rv, "<reviewer>rev%d</reviewer></review>", r.Intn(50))
	}
	rv.WriteString("</reviews>")
	return b.String(), rv.String()
}

// The four view shapes of direct_join (paper §5.1): selection only, the
// default nesting-2 view with one value join, three levels of nesting, and
// the four-join view.
const (
	viewSelection = `
for $a in fn:doc(inex.xml)/books//article
where $a/fm/yr > 1992
return <art>{$a/fm/tl}, {$a/bdy}</art>`

	viewJoin1 = `
for $au in fn:doc(authors.xml)/authors//author
return <arec>
  <aname>{$au/name}</aname>,
  {for $a in fn:doc(inex.xml)/books//article
   where $a/fm/au = $au/name
   return <art>{$a/fm/tl}, {$a/bdy}</art>}
</arec>`

	viewNest3 = `
for $f in fn:doc(affils.xml)/affils//affil
return <frec><inst>{$f/instname}</inst>,
  {for $au in fn:doc(authors.xml)/authors//author
   where $au/affid = $f/affid
   return <arec><aname>{$au/name}</aname>,
     {for $a in fn:doc(inex.xml)/books//article
      where $a/fm/au = $au/name
      return <art>{$a/fm/tl}, {$a/bdy}</art>}</arec>}</frec>`

	viewJoin4 = `
for $au in fn:doc(authors.xml)/authors//author
return <arec>
  <aname>{$au/name}</aname>,
  {for $f in fn:doc(affils.xml)/affils//affil
   where $f/affid = $au/affid
   return <inst>{$f/instname}</inst>},
  {for $a in fn:doc(inex.xml)/books//article
   where $a/fm/au = $au/name
   return <art>{$a/fm/tl}, {$a/bdy},
      {for $t in fn:doc(topics.xml)/topics//topic
       where $t/tname = $a/fm/kwd
       return <top>{$t/desc}</top>},
      {for $v in fn:doc(venues.xml)/venues//venue
       where $v/vid = $a/vid
       return <ven>{$v/vname}</ven>}</art>}
</arec>`
)
