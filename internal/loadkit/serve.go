// Self-serve mode: boot a real internal/server over the spec's corpus on
// a loopback listener, so the harness exercises the full HTTP stack —
// router, JSON codecs, streaming writer, timeouts — not a Database in a
// test harness. The load still travels over real TCP connections.
package loadkit

import (
	"context"
	"fmt"
	"net"
	"time"

	"vxml"
	"vxml/internal/inex"
	"vxml/internal/server"
)

// corpusDocuments expands a Corpus declaration into the concrete document
// list, generated pair first — the same expansion the oracle applies, so
// self-served server and oracle start byte-identical.
func corpusDocuments(c Corpus) []DocumentSpec {
	var docs []DocumentSpec
	if c.Books > 0 {
		books, reviews := inex.GenerateBooksReviews(c.Books, c.Seed)
		docs = append(docs,
			DocumentSpec{Name: "books.xml", XML: books},
			DocumentSpec{Name: "reviews.xml", XML: reviews})
	}
	return append(docs, c.Documents...)
}

// churnContent regenerates a churn document's content for iteration i:
// the same deterministic generator as the corpus, reseeded per iteration,
// so the churner and the oracle agree on every byte without coordination.
func churnContent(c Corpus, name string, i int64) string {
	books, reviews := inex.GenerateBooksReviews(c.Books, c.Seed+i+1)
	if name == "books.xml" {
		return books
	}
	return reviews
}

// buildDatabase opens a Database over the spec corpus.
func buildDatabase(spec *Spec) (*vxml.Database, error) {
	db := vxml.Open()
	for _, d := range corpusDocuments(spec.Corpus) {
		if err := db.Add(d.Name, d.XML); err != nil {
			return nil, fmt.Errorf("loadkit: adding %s: %w", d.Name, err)
		}
	}
	return db, nil
}

// SelfServe boots an internal/server over the spec's corpus and views on
// a loopback listener with the timeouts every serving command uses, and
// returns its base URL plus a shutdown func that drains in-flight
// requests.
func SelfServe(spec *Spec) (base string, shutdown func(), err error) {
	db, err := buildDatabase(spec)
	if err != nil {
		return "", nil, err
	}
	srv := server.New(db)
	for _, v := range spec.Views {
		if err := srv.DefineView(v.Name, v.XQuery); err != nil {
			return "", nil, fmt.Errorf("loadkit: defining view %s: %w", v.Name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := server.HTTPServer("", srv.Handler())
	done := make(chan struct{})
	go func() {
		httpSrv.Serve(ln) //nolint:errcheck // Shutdown's ErrServerClosed is the clean exit
		close(done)
	}()
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx) //nolint:errcheck
		<-done
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
