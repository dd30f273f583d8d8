package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"
)

// HTTPServer returns the http.Server every serving process runs h under.
// It bounds the whole request and response, not just the headers, so a
// slow-trickling client cannot pin a goroutine and connection forever. The
// read bound is sized so a document at the 64MB body cap still fits over a
// slow uplink (~2 Mbps). The write bound covers one-shot replies; an NDJSON
// stream, public or node, rolls its own per-line deadline past it.
func HTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve listens on addr and serves h under HTTPServer until ctx is done —
// the commands pass a context SIGINT and SIGTERM cancel — then drains
// in-flight requests for up to grace and returns. banner is logged as the
// listener starts. A listener that fails, or a drain that outlasts grace,
// ends the process.
func Serve(ctx context.Context, addr string, h http.Handler, grace time.Duration, banner string) {
	srv := HTTPServer(addr, h)
	errCh := make(chan error, 1)
	go func() {
		log.Print(banner)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("shutting down, draining for up to %s", grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
			os.Exit(1)
		}
		log.Printf("bye")
	}
}
