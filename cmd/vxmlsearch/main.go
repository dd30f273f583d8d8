// Command vxmlsearch runs ranked keyword search over a virtual XML view.
//
// Documents are loaded from XML files; the view definition comes from a
// file or from -view; keywords come from -q. Alternatively, -query runs a
// complete Figure-2 style query (let $view := ... for $r in $view where $r
// ftcontains('k1' & 'k2') return $r).
//
// The search runs under a context canceled by Ctrl-C (and bounded by
// -timeout), so an interrupted run exits promptly with "search canceled"
// instead of finishing the query. -offset pages through the ranking and
// -stream prints each result as the pipeline yields it (winners are
// materialized one at a time, so output starts before the search "ends").
//
// After loading, -replace name=file swaps a document's content and -delete
// name removes one, so a search can be run against a mutated corpus (views
// are virtual: results always reflect the corpus as mutated).
//
// Examples:
//
//	vxmlsearch -doc books.xml -doc reviews.xml -viewfile view.xq -q "xml,search"
//	vxmlsearch -doc books.xml -doc reviews.xml -queryfile query.xq
//	vxmlsearch -demo -q "xml,search"       # built-in books & reviews demo
//	vxmlsearch -demo -q "xml" -k 5 -offset 5    # the second page of five
//	vxmlsearch -demo -q "xml" -stream -timeout 2s
//	vxmlsearch -doc books.xml -replace books.xml=newbooks.xml -view ... -q xml
//	vxmlsearch -demo -delete reviews.xml -q "xml,search"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"vxml"
	"vxml/internal/inex"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var docs, replacements, deletions stringList
	flag.Var(&docs, "doc", "XML document file to load (repeatable); referenced in views by base name")
	flag.Var(&replacements, "replace", "after loading, replace document name with the file's content, as name=file (repeatable)")
	flag.Var(&deletions, "delete", "after loading (and any -replace), delete the named document (repeatable)")
	viewText := flag.String("view", "", "view definition (XQuery text)")
	viewFile := flag.String("viewfile", "", "file containing the view definition")
	queryText := flag.String("query", "", "complete keyword query (Figure-2 style)")
	queryFile := flag.String("queryfile", "", "file containing the complete keyword query")
	keywords := flag.String("q", "", "comma-separated keywords")
	topK := flag.Int("k", 10, "number of results (0 = all)")
	offset := flag.Int("offset", 0, "skip this many leading ranked results (pagination)")
	disjunctive := flag.Bool("any", false, "match any keyword instead of all")
	parallel := flag.Int("parallel", 0, "search worker pool size (0 = all CPUs, 1 = sequential)")
	demo := flag.Bool("demo", false, "load a generated books/reviews demo corpus")
	showStats := flag.Bool("stats", true, "print per-phase statistics")
	stream := flag.Bool("stream", false, "print results as the pipeline yields them (no stats)")
	timeout := flag.Duration("timeout", 0, "abort the search after this long (0 = no deadline)")
	explain := flag.Bool("explain", false, "print the query plan (QPTs and index probes) before searching")
	flag.Parse()

	// Ctrl-C cancels the in-flight search instead of killing the process
	// mid-write; a -timeout bounds it the same way.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	db := vxml.Open()
	if *demo {
		booksXML, reviewsXML := inex.DemoCorpus()
		db.MustAdd("books.xml", booksXML)
		db.MustAdd("reviews.xml", reviewsXML)
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			fatalf("reading %s: %v", path, err)
		}
		if err := db.Add(filepath.Base(path), string(data)); err != nil {
			fatalf("loading %s: %v", path, err)
		}
	}
	if len(db.DocumentNames()) == 0 {
		fatalf("no documents loaded; use -doc or -demo")
	}
	for _, spec := range replacements {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fatalf("bad -replace %q; want name=file", spec)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fatalf("reading %s: %v", path, err)
		}
		if err := db.Replace(name, string(data)); err != nil {
			fatalf("replacing %s: %v", name, err)
		}
	}
	for _, name := range deletions {
		if err := db.Delete(name); err != nil {
			fatalf("deleting %s: %v", name, err)
		}
	}

	opts := &vxml.Options{TopK: *topK, Offset: *offset, Disjunctive: *disjunctive, Parallelism: *parallel}

	var (
		results []vxml.Result
		stats   *vxml.Stats
		err     error
	)
	switch {
	case *queryText != "" || *queryFile != "":
		if *stream {
			fatalf("-stream works with -view/-viewfile/-demo searches, not -query/-queryfile")
		}
		query := *queryText
		if *queryFile != "" {
			data, err := os.ReadFile(*queryFile)
			if err != nil {
				fatalf("reading %s: %v", *queryFile, err)
			}
			query = string(data)
		}
		results, stats, err = db.QueryContext(ctx, query, opts)
	default:
		text := *viewText
		if *viewFile != "" {
			data, err := os.ReadFile(*viewFile)
			if err != nil {
				fatalf("reading %s: %v", *viewFile, err)
			}
			text = string(data)
		}
		if text == "" && *demo {
			text = demoView
		}
		if text == "" {
			fatalf("no view; use -view, -viewfile, -query or -queryfile")
		}
		if *keywords == "" {
			fatalf("no keywords; use -q k1,k2")
		}
		view, verr := db.DefineViewContext(ctx, text)
		if verr != nil {
			fatalf("compiling view: %v", verr)
		}
		kws := strings.Split(*keywords, ",")
		if *explain {
			fmt.Println(db.Explain(view, kws))
		}
		if *stream {
			for r, serr := range db.Results(ctx, view, kws, opts) {
				if serr != nil {
					fatalSearch(serr)
				}
				printResult(r)
			}
			return
		}
		results, stats, err = db.SearchContext(ctx, view, kws, opts)
	}
	if err != nil {
		fatalSearch(err)
	}

	for _, r := range results {
		printResult(r)
	}
	if *showStats {
		fmt.Printf("\n%d/%d view results matched; PDT %v (%d nodes), eval %v, post %v, total %v; base fetches %d\n",
			stats.Matched, stats.ViewSize, stats.PDTTime, stats.PDTNodes,
			stats.EvalTime, stats.PostTime, stats.Total, stats.BaseData)
	}
}

func printResult(r vxml.Result) {
	fmt.Printf("-- rank %d  score %.4f  tf %v\n", r.Rank, r.Score, r.TF)
	if r.Snippet != "" {
		fmt.Printf("   «%s»\n", r.Snippet)
	}
	fmt.Println(r.XML)
}

// fatalSearch distinguishes interruption from failure in the exit message.
func fatalSearch(err error) {
	switch {
	case errors.Is(err, context.Canceled):
		fatalf("search canceled")
	case errors.Is(err, context.DeadlineExceeded):
		fatalf("search timed out (%v)", err)
	default:
		fatalf("search: %v", err)
	}
}

const demoView = `
for $book in fn:doc(books.xml)/books//book
where $book/year > 1995
return <bookrevs>
         <book>{$book/title}</book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vxmlsearch: "+format+"\n", args...)
	os.Exit(1)
}
