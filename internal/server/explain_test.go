// Tests for POST /v1/explain: the plan-capture route the load harness
// attaches to flagged requests.
package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestExplainRoute covers the happy path (a non-empty plan for a
// registered view, echoing the request identity), the taxonomy statuses
// (404 unknown view, 400 missing keywords), and the /v1-only contract.
func TestExplainRoute(t *testing.T) {
	ts, _ := newTestServer(t)
	ingestCorpus(t, ts.URL)

	resp, body := postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"view": "bookrevs", "keywords": []string{"xml", "search"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/explain: %d %s", resp.StatusCode, body)
	}
	var got struct {
		View     string   `json:"view"`
		Keywords []string `json:"keywords"`
		Plan     string   `json:"plan"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.View != "bookrevs" || len(got.Keywords) != 2 {
		t.Errorf("response does not echo the request identity: %+v", got)
	}
	if got.Plan == "" {
		t.Error("empty plan for a registered view")
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"view": "nope", "keywords": []string{"xml"},
	}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown view: %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"view": "bookrevs",
	}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing keywords: %d, want 400", resp.StatusCode)
	}
	// Routes live under /v1 only; the bare path is a router miss.
	if resp, _ := postJSON(t, ts.URL+"/explain", map[string]any{
		"view": "bookrevs", "keywords": []string{"xml"},
	}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unversioned /explain: %d, want 404", resp.StatusCode)
	}
}
