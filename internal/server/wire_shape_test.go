// The /v1 responses are the library's own types encoded as they are: a
// search body decodes field for field into vxml.Result and vxml.Stats, a
// stream line into vxml.Result, and the stats body into catalog.Stats and
// store.ShardInfo — on a single-process server and behind a coordinator.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/cluster"
	"vxml/internal/store"
)

// decodeStrict decodes body into out, failing on any key out has no field
// for.
func decodeStrict(t *testing.T, body []byte, out any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("decoding %s into %T: %v", body, out, err)
	}
}

// TestWireIsTheLibraryShape decodes /v1/search with unknown fields
// disallowed into {[]vxml.Result, vxml.Stats}, on a heap server and on a
// two-slot cluster-backed server, and holds the results to exactly what
// SearchContext returns on an in-process database over the same corpus,
// with ViewSize, Matched and PlanSource agreeing. Every /v1/search/stream
// line must decode to the matching one-shot result, and /v1/stats must
// decode into the catalog.Stats blocks and []store.ShardInfo.
func TestWireIsTheLibraryShape(t *testing.T) {
	const view = `for $a in fn:collection("part-*")/books//article return <r>{$a/fm/tl}, {$a/bdy}</r>`
	docs := make([]string, 6)
	for i := range docs {
		docs[i] = fmt.Sprintf(`<books><article><fm><tl>copper %s</tl><au>author%d</au></fm><bdy>quartz%s survey</bdy></article></books>`,
			strings.Repeat("mining ", i%3), i, strings.Repeat(" copper", i%2))
	}
	bodies := []map[string]any{
		{"keywords": []string{"copper"}},
		{"keywords": []string{"copper", "mining"}, "top_k": 2},
		{"keywords": []string{"mining", "survey"}, "disjunctive": true, "offset": 1, "top_k": 3},
		{"keywords": []string{"copper"}, "top_k": 4, "cache": true},
		{"keywords": []string{"copper"}, "top_k": 4, "cache": true}, // a cache hit on both sides
	}

	var nodes [][]string
	for i := 0; i < 2; i++ {
		ns := httptest.NewServer(cluster.NewNode().Handler())
		t.Cleanup(ns.Close)
		nodes = append(nodes, []string{ns.URL})
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Slots: nodes, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	heap := vxml.Open()
	for _, backend := range []struct {
		name       string
		srv        *Server
		cacheStats func() catalog.Stats
	}{
		{"heap", New(heap), heap.CacheStats},
		{"cluster", NewBackend(coord), coord.CacheStats},
	} {
		t.Run(backend.name, func(t *testing.T) {
			ts := httptest.NewServer(backend.srv.Handler())
			defer ts.Close()
			oracle := vxml.Open()
			for i, doc := range docs {
				name := fmt.Sprintf("part-%02d.xml", i)
				oracle.MustAdd(name, doc)
				if resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]string{"name": name, "xml": doc}); resp.StatusCode != http.StatusCreated {
					t.Fatalf("add %s: %d %s", name, resp.StatusCode, body)
				}
			}
			ov, err := oracle.DefineView(view)
			if err != nil {
				t.Fatal(err)
			}
			if resp, body := postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "arts", "xquery": view}); resp.StatusCode != http.StatusCreated {
				t.Fatalf("define view: %d %s", resp.StatusCode, body)
			}

			for _, req := range bodies {
				req["view"] = "arts"
				resp, body := postJSON(t, ts.URL+"/v1/search", req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("search %v: %d %s", req, resp.StatusCode, body)
				}
				var got struct {
					Results []vxml.Result `json:"results"`
					Stats   vxml.Stats    `json:"stats"`
				}
				decodeStrict(t, body, &got)

				kws := req["keywords"].([]string)
				opts := &vxml.Options{Cache: req["cache"] == true, Disjunctive: req["disjunctive"] == true}
				opts.TopK, _ = req["top_k"].(int)
				opts.Offset, _ = req["offset"].(int)
				want, wstats, err := oracle.SearchContext(context.Background(), ov, kws, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got.Results, want) {
					t.Fatalf("search %v:\nwire    %+v\nlibrary %+v", req, got.Results, want)
				}
				if got.Stats.ViewSize != wstats.ViewSize || got.Stats.Matched != wstats.Matched || got.Stats.PlanSource != wstats.PlanSource {
					t.Fatalf("search %v: wire stats view_size/matched/plan_source %d/%d/%q, library %d/%d/%q", req,
						got.Stats.ViewSize, got.Stats.Matched, got.Stats.PlanSource, wstats.ViewSize, wstats.Matched, wstats.PlanSource)
				}
				if got.Stats.Total <= 0 {
					t.Fatalf("search %v: total_ns %d", req, got.Stats.Total)
				}

				// The stream replays the same page; keep the oracle's cache
				// in step with the server's, which the stream also consults.
				_, lines := streamLines(t, ts.URL, req)
				if _, _, err := oracle.SearchContext(context.Background(), ov, kws, opts); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lines, got.Results) {
					t.Fatalf("search %v: stream lines %+v, one-shot results %+v", req, lines, got.Results)
				}
			}

			resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stats: %d %s", resp.StatusCode, body)
			}
			var blocks map[string]json.RawMessage
			decodeStrict(t, body, &blocks)
			var st catalog.Stats
			decodeStrict(t, blocks["cache"], &st.CacheStats)
			decodeStrict(t, blocks["catalog"], &st.PlannerStats)
			if want := backend.cacheStats(); st != want {
				t.Fatalf("stats cache/catalog blocks %+v, backend reports %+v", st, want)
			}
			if st.Hits == 0 {
				t.Fatal("stats report no cache hit after a repeated cached search")
			}
			var shards []store.ShardInfo
			decodeStrict(t, blocks["shards"], &shards)
			total := 0
			for _, sh := range shards {
				total += sh.Documents
			}
			if total != len(docs) {
				t.Fatalf("shards %+v hold %d documents, want %d", shards, total, len(docs))
			}
		})
	}
}
