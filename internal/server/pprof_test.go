package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPprofOnlyOnItsOwnHandler: the profiling mux serves the heap profile,
// and the public handler serves no /debug/pprof/ path, with or without the
// /v1 prefix.
func TestPprofOnlyOnItsOwnHandler(t *testing.T) {
	get := func(h http.Handler, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		body, _ := io.ReadAll(rec.Body)
		return rec.Code, string(body)
	}
	if code, body := get(pprofHandler(), "/debug/pprof/heap?debug=1"); code != http.StatusOK || !strings.Contains(body, "heap profile") {
		t.Errorf("pprof heap: %d %.80q", code, body)
	}
	if code, body := get(pprofHandler(), "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %d %.80q", code, body)
	}
	_, srv := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/v1/debug/pprof/"} {
		if code, _ := get(srv.Handler(), path); code != http.StatusNotFound {
			t.Errorf("public handler GET %s: %d, want 404", path, code)
		}
	}
}
