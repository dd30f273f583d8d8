package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vxml"
)

// newHTTPTestServer wraps an already-configured Server (e.g. read-only) in
// an httptest listener.
func newHTTPTestServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// doJSON issues a request with a JSON (or empty) body and returns the
// response plus its body (PUT/DELETE have no http package helper).
func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var reader *bytes.Reader
	if body == nil {
		reader = bytes.NewReader(nil)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// searchXML runs a search over HTTP and returns the concatenated result
// XML, for content assertions.
func searchXML(t *testing.T, base, view string, keywords []string) (string, int) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/search", map[string]any{"view": view, "keywords": keywords})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, r := range sr.Results {
		all.WriteString(r.XML)
	}
	return all.String(), len(sr.Results)
}

func TestReplaceAndDeleteRoutes(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)

	before, n := searchXML(t, ts.URL, "bookrevs", []string{"xml"})
	if n == 0 || !strings.Contains(before, "XML Web Services") {
		t.Fatalf("pre-mutation search: %d results, %s", n, before)
	}

	// Replace reviews.xml: the xml keyword now hits different content.
	newReviews := `<reviews>
	  <review><isbn>111</isbn><content>revised xml appraisal</content></review>
	</reviews>`
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v1/documents/reviews.xml", map[string]string{"xml": newReviews})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: %d %s", resp.StatusCode, body)
	}
	var put addDocumentResponse
	if err := json.Unmarshal(body, &put); err != nil {
		t.Fatal(err)
	}
	if put.Name != "reviews.xml" || len(put.Documents) != 2 {
		t.Errorf("PUT response: %+v", put)
	}
	after, _ := searchXML(t, ts.URL, "bookrevs", []string{"xml"})
	if !strings.Contains(after, "revised xml appraisal") || strings.Contains(after, "great xml coverage") {
		t.Errorf("replacement not visible to search: %s", after)
	}

	// Delete reviews.xml: the view still works, reviews just vanish.
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/documents/reviews.xml", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d %s", resp.StatusCode, body)
	}
	gone, _ := searchXML(t, ts.URL, "bookrevs", []string{"xml"})
	if strings.Contains(gone, "revised xml appraisal") {
		t.Errorf("deleted document still searchable: %s", gone)
	}

	// The unversioned aliases answer the same way.
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/documents/books.xml", map[string]string{"xml": booksXML})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unversioned PUT: %d", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/documents/books.xml", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("unversioned DELETE: %d", resp.StatusCode)
	}
}

func TestMutationRouteTaxonomy(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)

	// 404: unknown name, both verbs.
	resp, _ := doJSON(t, http.MethodPut, ts.URL+"/v1/documents/absent.xml", map[string]string{"xml": "<a/>"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("PUT unknown: %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/documents/absent.xml", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: %d, want 404", resp.StatusCode)
	}
	// 400: malformed replacement XML, missing xml field.
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/documents/books.xml", map[string]string{"xml": "<unclosed"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT bad xml: %d, want 400", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/documents/books.xml", map[string]string{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT empty body: %d, want 400", resp.StatusCode)
	}
	// 409 on the POST duplicate path is unchanged.
	resp, _ = postJSON(t, ts.URL+"/v1/documents", map[string]string{"name": "books.xml", "xml": booksXML})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST duplicate: %d, want 409", resp.StatusCode)
	}
}

func TestReadOnlyServer(t *testing.T) {
	db := vxml.Open()
	db.MustAdd("books.xml", booksXML)
	srv := New(db)
	srv.SetReadOnly(true)
	ts := newHTTPTestServer(t, srv)

	resp, _ := postJSON(t, ts.URL+"/v1/documents", map[string]string{"name": "x.xml", "xml": "<a/>"})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("readonly POST: %d, want 403", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodPut, ts.URL+"/v1/documents/books.xml", map[string]string{"xml": booksXML})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("readonly PUT: %d, want 403", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/documents/books.xml", nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("readonly DELETE: %d, want 403", resp.StatusCode)
	}
	// Reads — and view definition — still work.
	resp, _ = postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "b", "xquery": `for $b in fn:doc(books.xml)/books//book return $b`})
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("readonly view define: %d, want 201", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "b", "keywords": []string{"xml"}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readonly search: %d, want 200", resp.StatusCode)
	}
}

func TestStatsReportMutations(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)
	if _, body := doJSON(t, http.MethodPut, ts.URL+"/v1/documents/books.xml", map[string]string{"xml": booksXML}); len(body) == 0 {
		t.Fatal("empty PUT response")
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/documents/reviews.xml", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE failed: %d", resp.StatusCode)
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range stats.Shards {
		total += sh.Mutations
	}
	if total != 2 {
		t.Errorf("stats mutations sum = %d, want 2 (shards: %+v)", total, stats.Shards)
	}
	if len(stats.Documents) != 1 || stats.Documents[0] != "books.xml" {
		t.Errorf("stats documents = %v", stats.Documents)
	}
}
