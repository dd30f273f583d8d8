// INEX-style evaluation view (paper §5): articles nested under their
// authors over a generated INEX-like collection, searched with the marker
// keywords of Table 1 and compared across all three pipelines.
//
// Run with: go run ./examples/inexsearch
package main

import (
	"fmt"
	"log"

	"vxml"
	"vxml/internal/benchkit"
	"vxml/internal/inex"
)

func main() {
	// One bench unit of data with the default view (articles under
	// authors, one value join) — exactly the Figure 13 default workload.
	p := benchkit.Default()
	p.UnitBytes = 256 << 10
	p.SizeUnits = 2

	corpus := inex.Generate(inex.Options{TargetBytes: p.TargetBytes(), Seed: p.Seed})
	db := vxml.Open()
	for _, doc := range corpus.Docs() {
		db.MustAdd(doc.Name, doc.Root.XMLString(""))
	}

	v, err := db.DefineView(p.ViewText())
	if err != nil {
		log.Fatalf("view: %v", err)
	}

	fmt.Printf("corpus: %d articles by %d authors (%d bytes)\n\n",
		corpus.ArticleCount, corpus.AuthorCount, db.TotalBytes())

	for _, q := range [][]string{
		inex.LowSelectivity,    // frequent terms: long inverted lists
		inex.MediumSelectivity, // the paper's default
		inex.HighSelectivity,   // rare terms
	} {
		results, stats, err := db.Search(v, q, &vxml.Options{TopK: 5})
		if err != nil {
			log.Fatalf("search %v: %v", q, err)
		}
		fmt.Printf("query %v: %d/%d author records matched (total %v: pdt %v eval %v post %v)\n",
			q, stats.Matched, stats.ViewSize, stats.Total, stats.PDTTime, stats.EvalTime, stats.PostTime)
		if len(results) > 0 {
			fmt.Printf("  top hit (score %.4f): %.120s...\n", results[0].Score, results[0].XML)
		}
	}

	// All three pipelines agree on the default query.
	fmt.Println("\npipeline agreement on", inex.MediumSelectivity, ":")
	var fingerprints []string
	for _, ap := range []vxml.Approach{vxml.Efficient, vxml.Baseline, vxml.GTPTermJoin} {
		results, stats, err := db.Search(v, inex.MediumSelectivity, &vxml.Options{TopK: 5, Approach: ap})
		if err != nil {
			log.Fatalf("approach %d: %v", ap, err)
		}
		fp := ""
		for _, r := range results {
			fp += fmt.Sprintf("%.6f|", r.Score)
		}
		fingerprints = append(fingerprints, fp)
		name := [...]string{"Efficient", "Baseline", "GTP"}[ap]
		fmt.Printf("  %-9s total %-12v scores %s\n", name, stats.Total, fp)
	}
	fmt.Printf("identical rankings: %v\n",
		fingerprints[0] == fingerprints[1] && fingerprints[1] == fingerprints[2])
}
