package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vxml"
	"vxml/internal/httpkit"
	"vxml/internal/testkit"
)

const booksXML = `<books>
  <book><isbn>111</isbn><title>XML Web Services</title><year>2004</year></book>
  <book><isbn>222</isbn><title>Search Systems</title><year>2001</year></book>
</books>`

const reviewsXML = `<reviews>
  <review><isbn>111</isbn><content>all about search engines</content></review>
  <review><isbn>222</isbn><content>great xml coverage</content></review>
</reviews>`

const bookrevsView = `
for $book in fn:doc(books.xml)/books//book
return <bookrevs>
         <book>{$book/title}</book>,
         {for $rev in fn:doc(reviews.xml)/reviews//review
          where $rev/isbn = $book/isbn
          return $rev/content}
       </bookrevs>`

// newTestServer stands up a Server over a fresh Database behind httptest.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	db := vxml.Open()
	srv := New(db)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// ingestCorpus loads the demo corpus and the bookrevs view over HTTP.
func ingestCorpus(t *testing.T, base string) {
	t.Helper()
	for name, xml := range map[string]string{"books.xml": booksXML, "reviews.xml": reviewsXML} {
		resp, body := postJSON(t, base+"/v1/documents", map[string]string{"name": name, "xml": xml})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /documents %s: %d %s", name, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, base+"/v1/views", map[string]string{"name": "bookrevs", "xquery": bookrevsView})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /views: %d %s", resp.StatusCode, body)
	}
}

func TestSearchHappyPath(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)

	req := map[string]any{"view": "bookrevs", "keywords": []string{"xml", "search"}, "top_k": 10, "cache": true}
	resp, body := postJSON(t, ts.URL+"/v1/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /search: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Rank    int            `json:"rank"`
			Score   float64        `json:"score"`
			TF      map[string]int `json:"tf"`
			XML     string         `json:"xml"`
			Snippet string         `json:"snippet"`
		} `json:"results"`
		Stats struct {
			PlanSource string `json:"plan_source"`
			Matched    int    `json:"matched"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, body)
	}
	if len(out.Results) == 0 {
		t.Fatal("no results for a matching query")
	}
	if out.Stats.PlanSource == "cache_hit" {
		t.Error("first search reported a cache hit")
	}
	for i, r := range out.Results {
		if r.Rank != i+1 || r.Score <= 0 || !strings.Contains(r.XML, "<bookrevs>") {
			t.Errorf("result %d malformed: %+v", i, r)
		}
	}

	// The identical repeated request is served from the cache.
	resp, body = postJSON(t, ts.URL+"/v1/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST /search: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.PlanSource != "cache_hit" {
		t.Error("repeated identical search missed the cache")
	}
}

func TestMalformedXQueryReturns400WithDiagnostics(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/views", map[string]string{
		"name":   "broken",
		"xquery": "for $x in fn:doc(books.xml)/books//book where return",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Error, "compiling view") || len(out.Error) < len("compiling view: x") {
		t.Errorf("missing parse diagnostics in %q", out.Error)
	}
}

func TestUnknownViewReturns404(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "nope", "keywords": []string{"xml"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, body)
	}
}

// overlappingView reads books.xml by name and through a collection
// pattern, which the compiler refuses.
const overlappingView = `for $a in fn:collection("book*")//book for $b in fn:doc(books.xml)//book return $a`

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	cases := []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"missing keywords", "/v1/search", map[string]any{"view": "bookrevs"}, http.StatusBadRequest},
		// The comparator pipelines are library-only: approach is no wire
		// field, so the strict decoder refuses it whatever its value.
		{"unknown approach", "/v1/search", map[string]any{"view": "bookrevs", "keywords": []string{"x"}, "approach": "warp"}, http.StatusBadRequest},
		{"approach is no field", "/v1/search", map[string]any{"view": "bookrevs", "keywords": []string{"x"}, "approach": "efficient"}, http.StatusBadRequest},
		{"negative top_k", "/v1/search", map[string]any{"view": "bookrevs", "keywords": []string{"x"}, "top_k": -1}, http.StatusBadRequest},
		{"unknown field", "/v1/search", map[string]any{"view": "bookrevs", "keywords": []string{"x"}, "frobnicate": 1}, http.StatusBadRequest},
		{"empty document", "/v1/documents", map[string]string{"name": "", "xml": ""}, http.StatusBadRequest},
		{"bad xml", "/v1/documents", map[string]string{"name": "bad.xml", "xml": "<unclosed>"}, http.StatusBadRequest},
		// A view may not read one document by name and through a pattern.
		{"overlapping references", "/v1/views", map[string]string{"name": "twice", "xquery": overlappingView}, http.StatusBadRequest},
		{"duplicate document", "/v1/documents", map[string]string{"name": "books.xml", "xml": booksXML}, http.StatusConflict},
		{"duplicate view", "/v1/views", map[string]string{"name": "bookrevs", "xquery": bookrevsView}, http.StatusConflict},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d; body %s", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// TestDeepNestingReturns400: a view or a document nested past its parser's
// limit is the client's bad body — 400, with the server still serving
// afterwards — not a stack overflow or an allocation that takes the
// process down.
func TestDeepNestingReturns400(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	deepView := strings.Repeat("(", 10_000) + "fn:doc(books.xml)//book" + strings.Repeat(")", 10_000)
	deepDoc := strings.Repeat("<a>", 1000) + "x" + strings.Repeat("</a>", 1000)
	for _, c := range []struct{ path, body string }{
		{"/v1/views", `{"name":"deep","xquery":"` + deepView + `"}`},
		{"/v1/documents", `{"name":"deep.xml","xml":"` + deepDoc + `"}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var out httpkit.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "deep") {
			t.Errorf("POST %s: %d %q, want 400 naming the nesting", c.path, resp.StatusCode, out.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats after the rejections: %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	// One miss then one hit.
	req := map[string]any{"view": "bookrevs", "keywords": []string{"xml"}, "cache": true}
	postJSON(t, ts.URL+"/v1/search", req)
	postJSON(t, ts.URL+"/v1/search", req)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var out struct {
		Documents  []string `json:"documents"`
		TotalBytes int      `json:"total_bytes"`
		Views      int      `json:"views"`
		Cache      struct {
			Hits          int `json:"hits"`
			Misses        int `json:"misses"`
			Invalidations int `json:"invalidations"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Documents) != 2 || out.Views != 1 || out.TotalBytes == 0 {
		t.Errorf("stats = %+v", out)
	}
	if out.Cache.Hits == 0 || out.Cache.Misses == 0 {
		t.Errorf("cache counters = %+v", out.Cache)
	}
	if out.Cache.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2 (one per ingested document)", out.Cache.Invalidations)
	}
}

// TestConcurrentRequestsShareOneDatabase mixes searches, view definitions
// and document ingests from many goroutines against one server; run with
// -race. Every search against the stable view must return the full result
// set regardless of interleaved ingests.
func TestConcurrentRequestsShareOneDatabase(t *testing.T) {
	ts, srv := newTestServer(t)
	ingestCorpus(t, ts.URL)

	// Reference response computed before the storm.
	ref, body := postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "bookrevs", "keywords": []string{"xml"}})
	if ref.StatusCode != http.StatusOK {
		t.Fatalf("reference search: %d %s", ref.StatusCode, body)
	}
	var refOut struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &refOut); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 12)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < 20; i++ {
				payload, _ := json.Marshal(map[string]any{
					"view": "bookrevs", "keywords": []string{"xml"}, "cache": i%2 == 0,
				})
				resp, err := client.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(payload))
				if err != nil {
					errCh <- err
					return
				}
				var out struct {
					Results []json.RawMessage `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close() //nolint:errcheck
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("searcher %d: status %d", g, resp.StatusCode)
					return
				}
				if len(out.Results) != len(refOut.Results) {
					errCh <- fmt.Errorf("searcher %d: %d results, want %d", g, len(out.Results), len(refOut.Results))
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < 10; i++ {
				payload, _ := json.Marshal(map[string]string{
					"name": fmt.Sprintf("extra-%d-%d.xml", g, i),
					"xml":  fmt.Sprintf("<extra><n>doc %d %d</n></extra>", g, i),
				})
				resp, err := client.Post(ts.URL+"/v1/documents", "application/json", bytes.NewReader(payload))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close() //nolint:errcheck
				if resp.StatusCode != http.StatusCreated {
					errCh <- fmt.Errorf("writer %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// All ingests landed in the one shared Database.
	if got, want := len(srv.backend.DocumentNames()), 2+3*10; got != want {
		t.Errorf("documents = %d, want %d", got, want)
	}
}

// TestShardStatsAndParallelSearch covers the sharded-pipeline surface: GET
// /stats reports per-shard corpus counters that add up to the whole
// corpus, POST /search accepts a parallelism bound plus collection-pattern
// views, reports execution counters, and rejects negative parallelism.
func TestShardStatsAndParallelSearch(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("part-%d.xml", i)
		xml := fmt.Sprintf("<books><article><tl>study %d</tl><bdy>xml search notes</bdy></article></books>", i)
		if resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]string{"name": name, "xml": xml}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /documents %s: %d %s", name, resp.StatusCode, body)
		}
	}
	view := `for $a in fn:collection("part-*")/books//article return <art>{$a/tl}, {$a/bdy}</art>`
	if resp, body := postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "all", "xquery": view}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /views: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	var stats struct {
		Documents []string `json:"documents"`
		Shards    []struct {
			Shard     int `json:"shard"`
			Documents int `json:"documents"`
			Bytes     int `json:"bytes"`
		} `json:"shards"`
		TotalBytes int `json:"total_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) == 0 {
		t.Fatal("GET /stats reported no shards")
	}
	docs, bytes := 0, 0
	for _, sh := range stats.Shards {
		docs += sh.Documents
		bytes += sh.Bytes
	}
	if docs != len(stats.Documents) || bytes != stats.TotalBytes {
		t.Errorf("per-shard counters (%d docs, %d bytes) do not add up to corpus (%d docs, %d bytes)",
			docs, bytes, len(stats.Documents), stats.TotalBytes)
	}

	// The same collection search, sequentially and with a worker pool,
	// must agree byte-for-byte; both report their execution counters.
	var outs [2]struct {
		Results []struct {
			XML     string  `json:"xml"`
			Snippet string  `json:"snippet"`
			Score   float64 `json:"score"`
		} `json:"results"`
		Stats struct {
			Workers        int `json:"workers"`
			Candidates     int `json:"candidates"`
			ShardsSearched int `json:"shards_searched"`
		} `json:"stats"`
	}
	for i, parallelism := range []int{1, 4} {
		req := map[string]any{"view": "all", "keywords": []string{"xml", "search"}, "parallelism": parallelism}
		resp, body := postJSON(t, ts.URL+"/v1/search", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /search (parallelism %d): %d %s", parallelism, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(outs[0].Results) == 0 {
		t.Fatal("collection search returned no results")
	}
	if len(outs[0].Results) != len(outs[1].Results) {
		t.Fatalf("sequential returned %d results, parallel %d", len(outs[0].Results), len(outs[1].Results))
	}
	for i := range outs[0].Results {
		if outs[0].Results[i] != outs[1].Results[i] {
			t.Errorf("result %d differs between parallelism settings", i)
		}
	}
	if outs[0].Stats.Workers != 1 || outs[1].Stats.Workers != 4 {
		t.Errorf("workers = %d and %d, want 1 and 4", outs[0].Stats.Workers, outs[1].Stats.Workers)
	}
	if outs[0].Stats.Candidates != 8 || outs[0].Stats.ShardsSearched == 0 {
		t.Errorf("execution counters = %+v", outs[0].Stats)
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "all", "keywords": []string{"x"}, "parallelism": -1}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative parallelism: status %d, want 400", resp.StatusCode)
	}
}

// TestTooManyKeywordsReturns400: a search naming more than 64 keywords is a
// 400 on the one-shot and the streaming route (before any result line) and
// on explain; 64 are served.
func TestTooManyKeywordsReturns400(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	kws := make([]string, 65)
	for i := range kws {
		kws[i] = fmt.Sprintf("k%d", i)
	}
	for _, path := range []string{"/v1/search", "/v1/search/stream", "/v1/explain"} {
		resp, body := postJSON(t, ts.URL+path, map[string]any{"view": "bookrevs", "keywords": kws})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "at most 64") {
			t.Errorf("POST %s with 65 keywords: %d %s, want 400", path, resp.StatusCode, body)
		}
		if resp, body := postJSON(t, ts.URL+path, map[string]any{"view": "bookrevs", "keywords": kws[:64]}); resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s with 64 keywords: %d %s, want 200", path, resp.StatusCode, body)
		}
	}
}

// TestViewTooLargeReturns400: a view whose function calls expand past the
// QPT node bound is a 400 naming the cause, answered at once, and the
// server keeps serving.
func TestViewTooLargeReturns400(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "big", "xquery": testkit.DoublingView(20)})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too large") {
		t.Errorf("doubling view: %d %s, want 400 naming the size", resp.StatusCode, body)
	}
	stats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats.Body.Close() //nolint:errcheck
	if stats.StatusCode != http.StatusOK {
		t.Errorf("stats after the rejected view: %d", stats.StatusCode)
	}
}
