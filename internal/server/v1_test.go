// Tests for the versioned /v1 surface: the NDJSON streaming endpoint, offset pagination over the wire, and the error
// taxonomy → status mapping.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"vxml"
	"vxml/internal/httpkit"
)

// streamLines POSTs to /v1/search/stream and decodes the NDJSON lines.
func streamLines(t *testing.T, base string, req map[string]any) (*http.Response, []vxml.Result) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/search/stream", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var out []vxml.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err == nil && probe.Error != "" {
			t.Fatalf("mid-stream error line: %s", line)
		}
		var res vxml.Result
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("undecodable stream line %q: %v", line, err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestSearchStreamMatchesOneShot: the NDJSON lines of /v1/search/stream
// are exactly the results array of /v1/search for the same request,
// including offset/top_k windows; an unknown view is an ordinary 404.
func TestSearchStreamMatchesOneShot(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)

	for _, window := range []map[string]any{
		{},
		{"top_k": 1},
		{"offset": 1},
		{"offset": 1, "top_k": 1},
	} {
		req := map[string]any{"view": "bookrevs", "keywords": []string{"xml", "search"}}
		for k, v := range window {
			req[k] = v
		}
		oneResp, oneBody := postJSON(t, ts.URL+"/v1/search", req)
		if oneResp.StatusCode != http.StatusOK {
			t.Fatalf("one-shot %v: %d %s", window, oneResp.StatusCode, oneBody)
		}
		var oneShot searchResponse
		if err := json.Unmarshal(oneBody, &oneShot); err != nil {
			t.Fatal(err)
		}
		_, streamed := streamLines(t, ts.URL, req)
		if len(streamed) != len(oneShot.Results) {
			t.Fatalf("window %v: stream yielded %d lines, one-shot %d results", window, len(streamed), len(oneShot.Results))
		}
		for i := range streamed {
			a, _ := json.Marshal(streamed[i])
			b, _ := json.Marshal(oneShot.Results[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("window %v result %d differs:\n%s\nvs\n%s", window, i, a, b)
			}
		}
	}

	// No matches: a successful, empty stream.
	resp, streamed := streamLines(t, ts.URL, map[string]any{"view": "bookrevs", "keywords": []string{"zzzznope"}})
	if resp.StatusCode != http.StatusOK || len(streamed) != 0 {
		t.Fatalf("empty stream: status %d, %d lines", resp.StatusCode, len(streamed))
	}

	// Pre-stream failures are ordinary JSON errors with taxonomy statuses.
	resp, _ = streamLines(t, ts.URL, map[string]any{"view": "nope", "keywords": []string{"xml"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown view on stream: %d, want 404", resp.StatusCode)
	}
}

// TestOffsetPaginationOverHTTP pages through a collection search and
// checks the concatenation against the unpaged response, plus the
// negative-offset rejection.
func TestOffsetPaginationOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("part-%d.xml", i)
		xml := fmt.Sprintf("<books><article><tl>study %d</tl><bdy>xml search notes %d</bdy></article></books>", i, i)
		if resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]string{"name": name, "xml": xml}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /v1/documents: %d %s", resp.StatusCode, body)
		}
	}
	view := `for $a in fn:collection("part-*")/books//article return <art>{$a/tl}, {$a/bdy}</art>`
	if resp, body := postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "all", "xquery": view}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/views: %d %s", resp.StatusCode, body)
	}

	unpagedReq := map[string]any{"view": "all", "keywords": []string{"xml"}, "cache": true}
	resp, body := postJSON(t, ts.URL+"/v1/search", unpagedReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpaged: %d %s", resp.StatusCode, body)
	}
	var unpaged searchResponse
	if err := json.Unmarshal(body, &unpaged); err != nil {
		t.Fatal(err)
	}
	if len(unpaged.Results) != 6 {
		t.Fatalf("unpaged returned %d results, want 6", len(unpaged.Results))
	}

	var paged []vxml.Result
	sawHit := false
	for off := 0; off < len(unpaged.Results); off += 2 {
		req := map[string]any{"view": "all", "keywords": []string{"xml"}, "offset": off, "top_k": 2, "cache": true}
		resp, body := postJSON(t, ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page offset=%d: %d %s", off, resp.StatusCode, body)
		}
		var page searchResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		sawHit = sawHit || page.Stats.PlanSource == "cache_hit"
		paged = append(paged, page.Results...)
	}
	if !sawHit {
		t.Error("no page was served from the shared cached full entry")
	}
	if len(paged) != len(unpaged.Results) {
		t.Fatalf("pages concatenate to %d results, unpaged %d", len(paged), len(unpaged.Results))
	}
	for i := range paged {
		// vxml.Result contains a map; compare via JSON.
		a, _ := json.Marshal(paged[i])
		b, _ := json.Marshal(unpaged.Results[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("result %d differs between paged and unpaged:\n%s\nvs\n%s", i, a, b)
		}
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "all", "keywords": []string{"x"}, "offset": -1}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative offset: status %d, want 400", resp.StatusCode)
	}
}

// TestStatusForTaxonomy pins the error → status table the /v1 docs
// promise.
func TestStatusForTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", vxml.ErrInvalidOptions), http.StatusBadRequest},
		{&vxml.ParseError{Pos: 3, Msg: "expected 'return'"}, http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", &vxml.ParseError{Pos: 1, Msg: "x"}), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", vxml.ErrViewTooLarge), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", vxml.ErrMalformedDocument), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", vxml.ErrUnknownView), http.StatusNotFound},
		{fmt.Errorf("wrap: %w", vxml.ErrUnknownDocument), http.StatusNotFound},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), http.StatusRequestTimeout},
		{fmt.Errorf("wrap: %w", vxml.ErrDuplicateDocument), http.StatusConflict},
		{fmt.Errorf("wrap: %w", context.Canceled), httpkit.StatusClientClosedRequest},
		{fmt.Errorf("opaque failure"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := httpkit.StatusFor(tc.err); got != tc.want {
			t.Errorf("httpkit.StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestCanceledRequestStopsSearch drives a search whose request context is
// canceled mid-flight (simulated directly against the handler contract:
// SearchContext with the request ctx) and asserts the taxonomy maps it to
// 499. The HTTP-level disconnect itself is exercised by the CI smoke test
// with curl --max-time.
func TestCanceledRequestStopsSearch(t *testing.T) {
	if !strings.Contains(fmt.Sprint(httpkit.StatusClientClosedRequest), "499") {
		t.Fatalf("httpkit.StatusClientClosedRequest = %d, want 499", httpkit.StatusClientClosedRequest)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := vxml.Open()
	db.MustAdd("books.xml", booksXML)
	view, err := db.DefineView(`for $b in fn:doc(books.xml)/books//book return $b`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = db.SearchContext(ctx, view, []string{"xml"}, nil)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if got := httpkit.StatusFor(err); got != httpkit.StatusClientClosedRequest {
		t.Fatalf("httpkit.StatusFor(canceled search) = %d, want 499", got)
	}
}
