// Streaming-endpoint robustness: the in-band error line must be flushed
// (a buffering proxy otherwise holds it until teardown, indistinguishable
// from truncation), a ResponseWriter without per-response write deadline
// support must degrade loudly to the global WriteTimeout instead of
// silently retrying, and the rolling write deadline must cut a stalled
// consumer while letting a healthy-but-slow one finish arbitrarily long
// streams.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vxml"
	"vxml/internal/httpkit"
)

// bufferedStreamRecorder is a ResponseWriter test double that models a
// buffering intermediary: bytes written stay in pending until Flush moves
// them to flushed (the proxy-visible side). It implements http.Flusher but
// deliberately not per-response deadlines, so it also exercises the
// SetWriteDeadline fallback.
type bufferedStreamRecorder struct {
	header  http.Header
	status  int
	pending bytes.Buffer
	flushed bytes.Buffer
	onWrite func(writes int)
	writes  int
}

func (w *bufferedStreamRecorder) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *bufferedStreamRecorder) WriteHeader(code int) { w.status = code }

func (w *bufferedStreamRecorder) Write(p []byte) (int, error) {
	w.pending.Write(p)
	w.writes++
	if w.onWrite != nil {
		w.onWrite(w.writes)
	}
	return len(p), nil
}

func (w *bufferedStreamRecorder) Flush() {
	w.flushed.Write(w.pending.Bytes())
	w.pending.Reset()
}

// newStreamTestServer builds a Server (not yet listening) over the small
// books/reviews corpus with the bookrevs view registered and logs routed
// to the test.
func newStreamTestServer(t *testing.T) *Server {
	t.Helper()
	db := vxml.Open()
	db.MustAdd("books.xml", booksXML)
	db.MustAdd("reviews.xml", reviewsXML)
	srv := New(db)
	srv.streams.Logf = t.Logf
	if err := srv.DefineView("bookrevs", bookrevsView); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestStreamMidStreamErrorLineFlushed cancels the request context after
// the first NDJSON line is written, forcing the iterator to deliver a
// mid-stream error. The in-band {"error": ...} line must be flushed
// through the buffering double before the handler returns — an unflushed
// error line is exactly what a client behind a proxy cannot distinguish
// from truncation.
func TestStreamMidStreamErrorLineFlushed(t *testing.T) {
	srv := newStreamTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"view":"bookrevs","keywords":["xml","search"],"disjunctive":true}`
	req := httptest.NewRequest(http.MethodPost, "/v1/search/stream", strings.NewReader(body)).WithContext(ctx)
	rec := &bufferedStreamRecorder{}
	rec.onWrite = func(writes int) {
		if writes == 1 {
			cancel() // first result line is out; the next winner must fail
		}
	}
	srv.handleSearchStream(rec, req)

	if rec.pending.Len() != 0 {
		t.Errorf("handler returned with %d unflushed bytes still buffered: %q", rec.pending.Len(), rec.pending.String())
	}
	flushed := rec.flushed.String()
	lines := nonEmptyLines(flushed)
	if len(lines) < 2 {
		t.Fatalf("want at least one result line and the error line flushed, got %d lines: %q", len(lines), flushed)
	}
	var last httpkit.ErrorBody
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Error == "" {
		t.Fatalf("final flushed line is not an in-band error: %q (unmarshal err %v)", lines[len(lines)-1], err)
	}
}

// TestStreamDeadlineUnsupportedFallsBackOnce streams through a writer
// without SetWriteDeadline support: the stream must still complete, and
// the degradation must be logged exactly once per server, not once per
// line or per request.
func TestStreamDeadlineUnsupportedFallsBackOnce(t *testing.T) {
	srv := newStreamTestServer(t)
	var logs []string
	srv.streams.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }

	for i := 0; i < 2; i++ {
		body := `{"view":"bookrevs","keywords":["xml","search"],"disjunctive":true}`
		req := httptest.NewRequest(http.MethodPost, "/v1/search/stream", strings.NewReader(body))
		rec := &bufferedStreamRecorder{}
		srv.handleSearchStream(rec, req)
		lines := nonEmptyLines(rec.flushed.String())
		if len(lines) != 2 {
			t.Fatalf("request %d: want the full 2-result stream despite the missing deadline support, got %d lines: %q",
				i, len(lines), rec.flushed.String())
		}
		for _, line := range lines {
			var res vxml.Result
			if err := json.Unmarshal([]byte(line), &res); err != nil || res.XML == "" {
				t.Fatalf("request %d: malformed result line %q (err %v)", i, line, err)
			}
		}
	}
	if len(logs) != 1 {
		t.Fatalf("want the unsupported-deadline fallback logged exactly once across requests, got %d: %v", len(logs), logs)
	}
	if !strings.Contains(logs[0], "write deadline") {
		t.Errorf("fallback log does not name the write deadline: %q", logs[0])
	}
}

// nonEmptyLines splits NDJSON output into its non-empty lines.
func nonEmptyLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// bigStreamNotes is the line count of the slow-consumer stream: sized so
// the full NDJSON body (~6.5 MB) comfortably exceeds what loopback socket
// buffers can absorb, forcing the server's writes to actually block on a
// consumer that stops reading.
const bigStreamNotes = 1600

// newBigStreamServer serves a corpus whose "big" view yields
// bigStreamNotes results of ~4 KB each, with the stream write grace
// shortened so the test observes the deadline in test time.
func newBigStreamServer(t *testing.T, grace time.Duration) *httptest.Server {
	t.Helper()
	db := vxml.Open()
	filler := strings.Repeat("lorem vxml stream data payload words here ", 96) // ~4 KB
	var sb strings.Builder
	sb.WriteString("<notes>")
	for i := 0; i < bigStreamNotes; i++ {
		fmt.Fprintf(&sb, "<note><body>streamkey %s n%d</body></note>", filler, i)
	}
	sb.WriteString("</notes>")
	db.MustAdd("big.xml", sb.String())
	srv := New(db)
	srv.streams.Grace = grace
	srv.streams.Logf = t.Logf
	if err := srv.DefineView("big", `for $n in fn:doc(big.xml)/notes//note return <hit>{$n/body}</hit>`); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// streamBigRequest opens the NDJSON stream over the big view.
func streamBigRequest(t *testing.T, base string) *http.Response {
	t.Helper()
	body := `{"view":"big","keywords":["streamkey"],"top_k":0}`
	resp, err := http.Post(base+"/v1/search/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	return resp
}

// TestStreamRollingWriteDeadline pins both halves of the rolling-deadline
// contract over a real connection: a consumer that stalls past the grace
// is cut, while a healthy-but-slow consumer whose total read time far
// exceeds the grace still receives every line.
func TestStreamRollingWriteDeadline(t *testing.T) {
	const grace = 250 * time.Millisecond
	ts := newBigStreamServer(t, grace)

	t.Run("stalled consumer is cut", func(t *testing.T) {
		resp := streamBigRequest(t, ts.URL)
		defer resp.Body.Close() //nolint:errcheck
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("reading first line: %v", err)
		}
		// Stall well past the grace without reading; socket buffers fill,
		// the server's next write blocks, and the deadline must cut it.
		time.Sleep(4 * grace)
		lines, readErr := 1, error(nil)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				readErr = err
				break
			}
			lines++
		}
		if lines >= bigStreamNotes {
			t.Fatalf("stalled consumer still received the entire %d-line stream (readErr %v); the rolling deadline did not cut it", lines, readErr)
		}
		t.Logf("stream cut after %d/%d lines (%v)", lines, bigStreamNotes, readErr)
	})

	t.Run("healthy slow consumer survives", func(t *testing.T) {
		resp := streamBigRequest(t, ts.URL)
		defer resp.Body.Close() //nolint:errcheck
		br := bufio.NewReader(resp.Body)
		start := time.Now()
		lines := 0
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				break
			}
			if strings.Contains(line, `"error"`) {
				t.Fatalf("in-band error after %d lines: %s", lines, line)
			}
			lines++
			// Pace the read so the whole stream takes several times the
			// grace — only a per-line rolling deadline survives that.
			if lines%20 == 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if lines != bigStreamNotes {
			t.Fatalf("slow consumer got %d/%d lines", lines, bigStreamNotes)
		}
		if elapsed := time.Since(start); elapsed < grace {
			t.Logf("warning: paced read finished in %v, under the %v grace; the rolling property was not stressed", elapsed, grace)
		}
	})
}
