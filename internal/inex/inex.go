// Package inex generates the synthetic stand-in for the paper's 500MB INEX
// collection. The real INEX data is licensed and unavailable offline, so we
// generate documents with the same DTD shape the paper excerpts:
//
//	<!ELEMENT books (journal*)>
//	<!ELEMENT journal (title, (article)*)>
//	<!ELEMENT article (fno, doi?, fm, bdy)>
//	<!ELEMENT fm (hdr?, (au|kwd)*)>
//
// plus the auxiliary joinable documents the experiments need (authors,
// affiliations, topics, venues, countries — used by the #joins and nesting
// sweeps). Everything is seeded and deterministic.
//
// Keyword selectivity is controlled by planting marker words at calibrated
// rates, mirroring Table 1: low selectivity (frequent) "ieee"/"computing",
// medium "thomas"/"control", high (rare) "moore"/"burnett".
package inex

import (
	"fmt"
	"math/rand"
	"strings"

	"vxml/internal/xmltree"
)

// Marker keywords of Table 1, by selectivity class.
var (
	LowSelectivity    = []string{"ieee", "computing"}
	MediumSelectivity = []string{"thomas", "control"}
	HighSelectivity   = []string{"moore", "burnett"}
	// SweepKeywords are five medium-rate planted words used by the
	// #keywords sweep (Figure 15).
	SweepKeywords = []string{"thomas", "control", "fuzzy", "neural", "parallel"}
)

// Options parameterize corpus generation.
type Options struct {
	// TargetBytes is the approximate serialized size of inex.xml.
	TargetBytes int
	// Seed makes generation deterministic.
	Seed int64
	// Partitions controls join selectivity (Table 1): author names are
	// namespaced per partition, so with P partitions a given author joins
	// 1/P of the articles. 1 = the paper's 1X.
	Partitions int
	// ElemSizeX multiplies the article body size (Table 1's "Avg. Size of
	// View Element", 1X-5X).
	ElemSizeX int
}

func (o Options) withDefaults() Options {
	if o.TargetBytes <= 0 {
		o.TargetBytes = 256 << 10
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.ElemSizeX <= 0 {
		o.ElemSizeX = 1
	}
	return o
}

// Corpus is a generated document collection.
type Corpus struct {
	INEX      *xmltree.Document // inex.xml
	Authors   *xmltree.Document // authors.xml
	Affils    *xmltree.Document // affils.xml
	Topics    *xmltree.Document // topics.xml
	Venues    *xmltree.Document // venues.xml
	Countries *xmltree.Document // countries.xml
	// AuthorCount and ArticleCount summarize the corpus.
	AuthorCount, ArticleCount int
}

// Docs returns all documents in a stable order.
func (c *Corpus) Docs() []*xmltree.Document {
	return []*xmltree.Document{c.INEX, c.Authors, c.Affils, c.Topics, c.Venues, c.Countries}
}

// vocabulary is the Zipf-ish base vocabulary for body text.
var vocabulary = buildVocabulary()

func buildVocabulary() []string {
	roots := []string{
		"system", "data", "model", "network", "algorithm", "query", "index",
		"process", "result", "method", "value", "structure", "node", "graph",
		"path", "tree", "cache", "logic", "signal", "design", "theory",
		"analysis", "storage", "protocol", "circuit", "filter", "kernel",
		"vector", "matrix", "layer", "agent", "schema", "stream", "buffer",
	}
	suffixes := []string{"", "s", "ing", "ed", "al", "ic", "ion", "er"}
	var words []string
	for _, r := range roots {
		for _, s := range suffixes {
			words = append(words, r+s)
		}
	}
	return words
}

// textGen emits pseudo-natural text with planted markers.
type textGen struct {
	r *rand.Rand
}

// sentence produces n words, planting selectivity markers at their
// calibrated rates: low ~ 1/8 sentences, medium ~ 1/80, high ~ 1/800, and
// the sweep keywords at ~1/100 each.
func (t *textGen) sentence(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		// Zipf-ish pick: prefer the head of the vocabulary.
		idx := t.r.Intn(len(vocabulary))
		if t.r.Intn(3) > 0 {
			idx = t.r.Intn(1 + len(vocabulary)/8)
		}
		b.WriteString(vocabulary[idx])
	}
	roll := t.r.Intn(8000)
	switch {
	case roll < 1000:
		b.WriteByte(' ')
		b.WriteString(LowSelectivity[t.r.Intn(len(LowSelectivity))])
	case roll < 1100:
		b.WriteByte(' ')
		b.WriteString(MediumSelectivity[t.r.Intn(len(MediumSelectivity))])
	case roll < 1110:
		b.WriteByte(' ')
		b.WriteString(HighSelectivity[t.r.Intn(len(HighSelectivity))])
	case roll < 1400:
		b.WriteByte(' ')
		b.WriteString(SweepKeywords[t.r.Intn(len(SweepKeywords))])
	}
	return b.String()
}

// Generate builds a deterministic corpus of roughly TargetBytes.
func Generate(opts Options) *Corpus {
	opts = opts.withDefaults()
	r := rand.New(rand.NewSource(opts.Seed))
	tg := &textGen{r: r}

	// Rough per-article cost ~ 700 bytes at 1X body size.
	approxArticle := 420 + 360*opts.ElemSizeX
	nArticles := opts.TargetBytes / approxArticle
	if nArticles < 8 {
		nArticles = 8
	}
	authorsPerPartition := nArticles / 8
	if authorsPerPartition < 4 {
		authorsPerPartition = 4
	}
	nTopics := 40
	nVenues := 16
	nCountries := 8
	nJournalsPerPartition := nArticles/(opts.Partitions*50) + 1

	c := &Corpus{ArticleCount: nArticles}

	// authors.xml / affils.xml / countries.xml
	authorsRoot := xmltree.NewElement("authors")
	affilsRoot := xmltree.NewElement("affils")
	countriesRoot := xmltree.NewElement("countries")
	var authorNames [][]string // per partition
	for p := 0; p < opts.Partitions; p++ {
		var names []string
		for i := 0; i < authorsPerPartition; i++ {
			name := fmt.Sprintf("author_p%d_%d", p, i)
			names = append(names, name)
			au := authorsRoot.AppendChild(xmltree.NewElement("author"))
			au.AppendLeaf("name", name)
			au.AppendLeaf("affid", fmt.Sprintf("aff%d", (p*authorsPerPartition+i)%(authorsPerPartition/2+1)))
			au.AppendLeaf("bio", tg.sentence(6))
		}
		authorNames = append(authorNames, names)
	}
	c.AuthorCount = opts.Partitions * authorsPerPartition
	nAffils := authorsPerPartition/2 + 1
	for i := 0; i < nAffils; i++ {
		af := affilsRoot.AppendChild(xmltree.NewElement("affil"))
		af.AppendLeaf("affid", fmt.Sprintf("aff%d", i))
		af.AppendLeaf("instname", tg.sentence(3))
		af.AppendLeaf("country", fmt.Sprintf("country%d", i%nCountries))
	}
	for i := 0; i < nCountries; i++ {
		co := countriesRoot.AppendChild(xmltree.NewElement("country"))
		co.AppendLeaf("cname", fmt.Sprintf("country%d", i))
		co.AppendLeaf("region", tg.sentence(2))
	}

	// topics.xml / venues.xml
	topicsRoot := xmltree.NewElement("topics")
	for i := 0; i < nTopics; i++ {
		to := topicsRoot.AppendChild(xmltree.NewElement("topic"))
		to.AppendLeaf("tname", fmt.Sprintf("topic%d", i))
		to.AppendLeaf("desc", tg.sentence(8))
	}
	venuesRoot := xmltree.NewElement("venues")
	for i := 0; i < nVenues; i++ {
		ve := venuesRoot.AppendChild(xmltree.NewElement("venue"))
		ve.AppendLeaf("vid", fmt.Sprintf("v%d", i))
		ve.AppendLeaf("vname", tg.sentence(3))
		ve.AppendLeaf("city", tg.sentence(1))
	}

	// inex.xml: books(journal*), journal(title, article*)
	inexRoot := xmltree.NewElement("books")
	articleNum := 0
	for p := 0; p < opts.Partitions; p++ {
		for j := 0; j < nJournalsPerPartition; j++ {
			journal := inexRoot.AppendChild(xmltree.NewElement("journal"))
			journal.AppendLeaf("title", tg.sentence(4))
			perJournal := nArticles / (opts.Partitions * nJournalsPerPartition)
			if perJournal < 1 {
				perJournal = 1
			}
			for a := 0; a < perJournal; a++ {
				art := journal.AppendChild(xmltree.NewElement("article"))
				art.AppendLeaf("fno", fmt.Sprintf("fno%06d", articleNum))
				if r.Intn(2) == 0 {
					art.AppendLeaf("doi", fmt.Sprintf("10.1000/%06d", articleNum))
				}
				art.AppendLeaf("vid", fmt.Sprintf("v%d", r.Intn(nVenues)))
				fm := art.AppendChild(xmltree.NewElement("fm"))
				if r.Intn(3) == 0 {
					fm.AppendLeaf("hdr", tg.sentence(3))
				}
				fm.AppendLeaf("tl", tg.sentence(5))
				fm.AppendLeaf("yr", fmt.Sprintf("%d", 1988+r.Intn(20)))
				names := authorNames[p]
				for k := 0; k < 1+r.Intn(3); k++ {
					fm.AppendLeaf("au", names[r.Intn(len(names))])
				}
				for k := 0; k < 1+r.Intn(2); k++ {
					fm.AppendLeaf("kwd", fmt.Sprintf("topic%d", r.Intn(nTopics)))
				}
				bdy := art.AppendChild(xmltree.NewElement("bdy"))
				for s := 0; s < 2*opts.ElemSizeX; s++ {
					sec := bdy.AppendChild(xmltree.NewElement("sec"))
					sec.AppendLeaf("st", tg.sentence(3))
					sec.AppendLeaf("p", tg.sentence(22))
				}
				// Back matter with references: real INEX articles cite
				// other work, so the au and tl TAGS also occur outside the
				// fm context. Path indices distinguish /article/fm/au from
				// /article/bm/ref/au; per-tag element lists (as scanned by
				// GTP's structural joins) do not.
				bm := art.AppendChild(xmltree.NewElement("bm"))
				for k := 0; k < 3; k++ {
					ref := bm.AppendChild(xmltree.NewElement("ref"))
					ref.AppendLeaf("au", names[r.Intn(len(names))])
					ref.AppendLeaf("tl", tg.sentence(4))
					ref.AppendLeaf("yr", fmt.Sprintf("%d", 1970+r.Intn(35)))
				}
				articleNum++
			}
		}
	}

	c.INEX = &xmltree.Document{Name: "inex.xml", Root: inexRoot}
	c.Authors = &xmltree.Document{Name: "authors.xml", Root: authorsRoot}
	c.Affils = &xmltree.Document{Name: "affils.xml", Root: affilsRoot}
	c.Topics = &xmltree.Document{Name: "topics.xml", Root: topicsRoot}
	c.Venues = &xmltree.Document{Name: "venues.xml", Root: venuesRoot}
	c.Countries = &xmltree.Document{Name: "countries.xml", Root: countriesRoot}
	return c
}

// GenerateBooksReviews builds the paper's running-example corpora (Figure
// 1) at a parameterized size: nBooks books and ~2x reviews, with keyword
// markers planted in titles and review contents.
func GenerateBooksReviews(nBooks int, seed int64) (booksXML, reviewsXML string) {
	r := rand.New(rand.NewSource(seed))
	tg := &textGen{r: r}
	var books strings.Builder
	books.WriteString("<books>\n")
	for i := 0; i < nBooks; i++ {
		fmt.Fprintf(&books, "<book><isbn>%03d-%02d-%04d</isbn><title>%s</title><publisher>%s</publisher><year>%d</year></book>\n",
			i, i%97, i*7%9973, tg.sentence(4), tg.sentence(2), 1985+r.Intn(25))
	}
	books.WriteString("</books>")
	var reviews strings.Builder
	reviews.WriteString("<reviews>\n")
	for i := 0; i < nBooks*2; i++ {
		b := r.Intn(nBooks + nBooks/10 + 1) // some reviews dangle
		fmt.Fprintf(&reviews, "<review><isbn>%03d-%02d-%04d</isbn><rate>%d</rate><content>%s</content><reviewer>rev%d</reviewer></review>\n",
			b, b%97, b*7%9973, 1+r.Intn(5), tg.sentence(12), r.Intn(50))
	}
	reviews.WriteString("</reviews>")
	return books.String(), reviews.String()
}

// DemoView is the books & reviews join the serving commands register as
// "demo" over DemoCorpus, so a coordinator answers the demo workload
// byte-identically to a single-process server.
const DemoView = `
for $book in fn:doc(books.xml)/books//book
return <bookrevs>
         <book>{$book/title}</book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

// DemoCorpus generates the demo's books.xml and reviews.xml.
func DemoCorpus() (booksXML, reviewsXML string) { return GenerateBooksReviews(200, 7) }
