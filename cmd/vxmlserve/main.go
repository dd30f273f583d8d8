// Command vxmlserve serves ranked keyword search over virtual XML views as
// a JSON HTTP API (see internal/server for the endpoint reference).
//
// Documents given with -doc are loaded at startup; -demo loads a generated
// books & reviews corpus and registers a "demo" view over it. With -disk
// the corpus lives in a disk-resident, DAG-compressed store (created on
// first run): startup reads only its manifest, documents page in on demand
// through a bounded block cache (-disk-cache-mb), every
// mutation persists incrementally, and GET /v1/stats grows a "disk" object
// with resident-bytes and cache hit counters. Further
// documents and views arrive over POST /v1/documents and POST /v1/views,
// and the corpus mutates in place over PUT /v1/documents/{name} (replace)
// and DELETE /v1/documents/{name} (every route lives under /v1);
// -readonly disables all three mutation routes. Every search runs under its
// request's context — a disconnected or timed-out client cancels the
// pipeline — and POST /v1/search/stream delivers results as NDJSON lines
// the moment each ranked winner is materialized. -pprof addr serves the
// runtime profiles (net/http/pprof) on a separate listener, so a running
// server can be profiled without a rebuild. The process drains in-flight
// requests and exits cleanly on SIGINT/SIGTERM.
//
// Examples:
//
//	vxmlserve -demo -addr :8344
//	curl -s localhost:8344/v1/search \
//	  -d '{"view":"demo","keywords":["xml","search"],"top_k":3,"cache":true}'
//	curl -sN localhost:8344/v1/search/stream \
//	  -d '{"view":"demo","keywords":["xml","search"],"top_k":3,"offset":3}'
//	curl -s localhost:8344/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"vxml"
	"vxml/internal/diskstore"
	"vxml/internal/inex"
	"vxml/internal/server"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var docs stringList
	flag.Var(&docs, "doc", "XML document file to load at startup (repeatable); referenced in views by base name")
	addr := flag.String("addr", ":8344", "listen address")
	demo := flag.Bool("demo", false, "load a generated books/reviews corpus and register a 'demo' view")
	readonly := flag.Bool("readonly", false, "disable the corpus-mutating routes (POST/PUT/DELETE under /documents answer 403)")
	diskDir := flag.String("disk", "", "serve a disk-resident corpus from this directory (created if absent); documents page in through a block cache and mutations persist across restarts")
	diskCacheMB := flag.Int("disk-cache-mb", 0, "with -disk: block cache budget in MiB (0 = default 16)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this separate address, e.g. 127.0.0.1:6061 (off when empty; never on the public listener)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "maximum time to drain in-flight requests on shutdown")
	flag.Parse()

	var db *vxml.Database
	if *diskDir != "" {
		opts := diskstore.Options{CacheBytes: int64(*diskCacheMB) << 20}
		var err error
		db, err = vxml.OpenDiskOptions(*diskDir, opts)
		if err != nil {
			log.Fatalf("opening disk corpus %s: %v", *diskDir, err)
		}
		defer db.Close()
		if stats, ok := db.DiskStats(); ok {
			log.Printf("disk corpus %s: %d documents, %d data bytes, opened in %.1fms",
				*diskDir, stats.Documents, stats.DataBytes, stats.OpenMillis)
		}
	} else {
		db = vxml.Open()
	}
	if *demo {
		// A persisted disk corpus may already hold the demo documents from a
		// previous run; re-adding them would (correctly) be rejected as
		// duplicates.
		existing := make(map[string]bool)
		for _, name := range db.DocumentNames() {
			existing[name] = true
		}
		booksXML, reviewsXML := inex.DemoCorpus()
		if !existing["books.xml"] {
			db.MustAdd("books.xml", booksXML)
		}
		if !existing["reviews.xml"] {
			db.MustAdd("reviews.xml", reviewsXML)
		}
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("reading %s: %v", path, err)
		}
		name := filepath.Base(path)
		err = db.Add(name, string(data))
		if errors.Is(err, vxml.ErrDuplicateDocument) {
			// A restarted disk-backed server sees its own persisted copy;
			// take the file on disk as the intended current content.
			err = db.Replace(name, string(data))
		}
		if err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
	}

	srv := server.New(db)
	server.ServePprof(*pprofAddr)
	srv.SetReadOnly(*readonly)
	if *demo {
		if err := srv.DefineView("demo", inex.DemoView); err != nil {
			log.Fatalf("registering demo view: %v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	server.Serve(ctx, *addr, srv.Handler(), *shutdownGrace,
		fmt.Sprintf("vxmlserve listening on %s (%d documents)", *addr, len(db.DocumentNames())))
}
