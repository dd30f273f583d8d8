// Command inexgen writes the synthetic INEX-like corpus (and its auxiliary
// joinable documents) to XML files, for inspection or for loading with
// vxmlsearch.
//
//	inexgen -out ./data -bytes 1048576 -seed 42 -partitions 1 -elemsize 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vxml/internal/inex"
)

func main() {
	out := flag.String("out", ".", "output directory")
	bytes := flag.Int("bytes", 1<<20, "approximate size of inex.xml")
	seed := flag.Int64("seed", 42, "generation seed")
	partitions := flag.Int("partitions", 1, "join-selectivity partitions (1 = the paper's 1X)")
	elemSize := flag.Int("elemsize", 1, "article body size multiplier (1-5)")
	flag.Parse()

	corpus := inex.Generate(inex.Options{
		TargetBytes: *bytes,
		Seed:        *seed,
		Partitions:  *partitions,
		ElemSizeX:   *elemSize,
	})
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	for i, doc := range corpus.Docs() {
		doc.DocID = int32(i + 1)
		doc.Finalize() // assigns Dewey IDs and computes sizes
		path := filepath.Join(*out, doc.Name)
		f, err := os.Create(path)
		if err != nil {
			fatalf("creating %s: %v", path, err)
		}
		if err := doc.Root.WriteXML(f, "  "); err != nil {
			fatalf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing %s: %v", path, err)
		}
		stats := doc.ComputeStats()
		fmt.Printf("%-16s %8d elements %10d bytes depth %d\n",
			doc.Name, stats.Elements, stats.Bytes, stats.MaxDepth)
	}
	fmt.Printf("%d articles, %d authors\n", corpus.ArticleCount, corpus.AuthorCount)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "inexgen: "+format+"\n", args...)
	os.Exit(1)
}
