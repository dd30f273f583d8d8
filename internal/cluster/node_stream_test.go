package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// streamTestDocs and the ~64 KB body of each document size a node's
// streamed replies (~25 MB of NDJSON) well past what loopback socket
// buffers absorb, so the node is still writing when a short server
// WriteTimeout passes.
const streamTestDocs = 400

// TestNodeStreamsRollWriteDeadline serves a node under a 300ms
// WriteTimeout and reads its /snapshot and /materialize streams at a
// healthy but slow pace — each takes seconds. The WriteTimeout is one
// absolute deadline for the whole response, so a node stream survives only
// if it rolls a per-line write deadline forward as it writes, the way
// /v1/search/stream does. Without that, the reader gets a truncated stream
// (no done line), which a replica bootstrap reports as "truncated" and a
// coordinator as a lost member.
func TestNodeStreamsRollWriteDeadline(t *testing.T) {
	// The corpus goes straight into the engine before the node serves:
	// the streams are under test, not 25 MB of JSON-encoded adds.
	node := NewNode()
	filler := "copper " + strings.Repeat("-", 64<<10)
	for i := 0; i < streamTestDocs; i++ {
		if err := node.engine.AddXMLAt(fmt.Sprintf("part-%d", i), "<books><article><bdy>"+filler+"</bdy></article></books>", int32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	node.gen = streamTestDocs
	ts := httptest.NewUnstartedServer(node.Handler())
	ts.Config.WriteTimeout = 300 * time.Millisecond
	ts.Start()
	defer ts.Close()
	if code := postNode(t, ts.URL, "/views", viewRequest{Schema: Schema, Name: "v",
		XQuery: `for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`}, nil); code != http.StatusOK {
		t.Fatalf("view push: %d", code)
	}

	// pacedLines reads an NDJSON reply at 5ms per line and returns the line
	// count and the last line.
	pacedLines := func(t *testing.T, resp *http.Response) (int, []byte) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		lines, last := 0, []byte(nil)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				if len(line) > 0 {
					t.Errorf("stream cut mid-line after %d lines: %v", lines, err)
				}
				return lines, last
			}
			lines++
			last = line
			time.Sleep(5 * time.Millisecond)
		}
	}
	// done reports whether an NDJSON line is a stream's done marker.
	done := func(line []byte) bool {
		var l struct {
			Done bool `json:"done"`
		}
		return json.Unmarshal(line, &l) == nil && l.Done
	}

	t.Run("snapshot", func(t *testing.T) {
		resp, err := http.Get(ts.URL + pathPrefix + "/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		lines, last := pacedLines(t, resp)
		if !done(last) {
			t.Fatalf("snapshot truncated after %d lines in %v: no done line", lines, time.Since(start))
		}
		// Header, one line per document file plus the manifest, done.
		if lines < streamTestDocs+2 {
			t.Fatalf("snapshot has %d lines, want at least %d", lines, streamTestDocs+2)
		}
	})

	t.Run("materialize", func(t *testing.T) {
		positions := make([]int, streamTestDocs)
		for i := range positions {
			positions[i] = i
		}
		body, err := json.Marshal(materializeRequest{
			rankRequest: rankRequest{Schema: Schema, View: "v", Keywords: []string{"copper"}, Gen: streamTestDocs},
			Positions:   positions,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+pathPrefix+"/materialize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		lines, last := pacedLines(t, resp)
		if !done(last) {
			t.Fatalf("materialize truncated after %d lines in %v: no done line", lines, time.Since(start))
		}
		if lines != streamTestDocs+1 {
			t.Fatalf("materialize has %d lines, want %d winners and the done line", lines, streamTestDocs+1)
		}
	})
}
