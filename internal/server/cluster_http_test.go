// The /v1 surface over a cluster backend: the taxonomy rows only a
// distributed deployment produces, and the degraded-mode contract — a dead
// slot turns into a 502 whose body still carries the surviving partitions'
// results plus per-node status, never a silently truncated 200.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vxml"
	"vxml/internal/cluster"
	"vxml/internal/core"
	"vxml/internal/httpkit"
	"vxml/internal/testkit"
)

// The coordinator is served as it is: it implements Backend itself.
var _ Backend = (*cluster.Coordinator)(nil)

// TestStatusForClusterTaxonomy pins the rows the cluster backend adds to
// the error → status table.
func TestStatusForClusterTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", vxml.ErrPartialCluster), http.StatusBadGateway},
		{fmt.Errorf("wrap: %w", vxml.ErrNodeUnavailable), http.StatusBadGateway},
		{fmt.Errorf("wrap: %w", vxml.ErrStaleGeneration), http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", vxml.ErrUnroutableView), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", core.ErrUnpartitionableView), http.StatusBadRequest},
		{fmt.Errorf("wrap: %w", vxml.ErrDuplicateView), http.StatusConflict},
	}
	for _, tc := range cases {
		if got := httpkit.StatusFor(tc.err); got != tc.want {
			t.Errorf("httpkit.StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

const clusterPartDoc = `<books><article><fm><tl>copper mining</tl><au>author%d</au><yr>1999</yr></fm><bdy>copper quartz survey</bdy></article></books>`

// TestMalformedDocumentIs400OnBothSurfaces: a document that is not
// well-formed XML is the client's fault on a single-process server and on
// a coordinator over two nodes alike. Before the parser's errors wrapped
// vxml.ErrMalformedDocument the node answered 500/internal, and the
// coordinator reported its own client's mistake as 502 "node unavailable".
func TestMalformedDocumentIs400OnBothSurfaces(t *testing.T) {
	var slots [][]string
	for i := 0; i < 2; i++ {
		ns := httptest.NewServer(cluster.NewNode().Handler())
		defer ns.Close()
		slots = append(slots, []string{ns.URL})
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Slots: slots, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Handler{
		"coordinator": NewBackend(coord).Handler(),
		"single":      New(vxml.Open()).Handler(),
	} {
		ts := httptest.NewServer(h)
		defer ts.Close()
		for _, doc := range []string{"<notes>", "<a/><b/>", "text"} {
			resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]any{"name": "bad.xml", "xml": doc})
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: adding %q answered %d %s, want 400", name, doc, resp.StatusCode, body)
			}
		}
		resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]any{"name": "bad.xml", "xml": "<notes/>"})
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("%s: a well-formed add after the rejected ones answered %d %s", name, resp.StatusCode, body)
		}
	}
}

// TestClusterBackedServer serves the public API through a two-slot
// cluster and checks the full degraded-mode round trip over HTTP.
func TestClusterBackedServer(t *testing.T) {
	var nodeServers []*httptest.Server
	var slots [][]string
	for i := 0; i < 2; i++ {
		ns := httptest.NewServer(cluster.NewNode().Handler())
		defer ns.Close()
		nodeServers = append(nodeServers, ns)
		slots = append(slots, []string{ns.URL})
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Slots: slots, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewBackend(coord).Handler())
	defer ts.Close()

	// Enough partitioned documents that both slots own at least one.
	perSlot := map[int]int{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("part-%02d.xml", i)
		resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]any{
			"name": name, "xml": fmt.Sprintf(clusterPartDoc, i),
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("add %s: %d %s", name, resp.StatusCode, body)
		}
	}
	for _, st := range coord.Shards() {
		perSlot[st.Shard] = st.Documents
	}
	if perSlot[0] == 0 || perSlot[1] == 0 {
		t.Fatalf("document names did not spread over both slots: %v", perSlot)
	}

	viewReq := map[string]any{
		"name":   "arts",
		"xquery": `for $a in fn:collection("part-*")/books//article return <r>{$a/fm/tl}, {$a/bdy}</r>`,
	}
	if resp, body := postJSON(t, ts.URL+"/v1/views", viewReq); resp.StatusCode != http.StatusCreated {
		t.Fatalf("define view: %d %s", resp.StatusCode, body)
	}
	// Re-registering the same name over HTTP is a conflict, same as the
	// single-process server.
	if resp, _ := postJSON(t, ts.URL+"/v1/views", viewReq); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate view: status %d, want 409", resp.StatusCode)
	}

	searchReq := map[string]any{"view": "arts", "keywords": []string{"copper"}}
	resp, body := postJSON(t, ts.URL+"/v1/search", searchReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy search: %d %s", resp.StatusCode, body)
	}
	var healthy struct {
		Results []json.RawMessage `json:"results"`
		Stats   struct {
			Nodes []vxml.NodeStatus `json:"nodes"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &healthy); err != nil {
		t.Fatal(err)
	}
	if len(healthy.Results) != 6 {
		t.Fatalf("healthy search returned %d results, want 6", len(healthy.Results))
	}
	for _, ns := range healthy.Stats.Nodes {
		if ns.State != "ok" {
			t.Fatalf("healthy search reports node %+v", ns)
		}
	}

	// Kill slot 1 and search again: a 502 whose body still carries slot 0's
	// results, an error naming the condition, and per-node status naming the
	// lost member.
	nodeServers[1].Close()
	resp, body = postJSON(t, ts.URL+"/v1/search", searchReq)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("degraded search: status %d, want 502 (body %s)", resp.StatusCode, body)
	}
	var degraded struct {
		Results []json.RawMessage `json:"results"`
		Error   string            `json:"error"`
		Stats   struct {
			Nodes []vxml.NodeStatus `json:"nodes"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatal(err)
	}
	if len(degraded.Results) != perSlot[0] {
		t.Fatalf("degraded body carries %d results, want slot 0's %d", len(degraded.Results), perSlot[0])
	}
	if degraded.Error == "" {
		t.Fatal("degraded body has no error field")
	}
	var failed int
	for _, ns := range degraded.Stats.Nodes {
		if ns.Slot == 1 && ns.State == "failed" {
			failed++
			if ns.Err == "" {
				t.Fatal("failed node status has no error text")
			}
		}
	}
	if failed != 1 {
		t.Fatalf("degraded stats.nodes does not name the lost member: %+v", degraded.Stats.Nodes)
	}

	// The backend error behind that 502 is the typed sentinel.
	_, _, err = coord.Search(t.Context(), "arts", []string{"copper"}, nil)
	if !errors.Is(err, vxml.ErrPartialCluster) {
		t.Fatalf("coordinator error = %v, want ErrPartialCluster", err)
	}

	// Mutations that route to the dead primary fail loudly too. Placement
	// hashes the name, so probe fresh names until one lands on slot 1 (a
	// handful of tries finds one with near-certainty).
	var sawDeadAdd bool
	for i := 6; i < 30 && !sawDeadAdd; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/documents", map[string]any{
			"name": fmt.Sprintf("part-%02d.xml", i), "xml": fmt.Sprintf(clusterPartDoc, i),
		})
		switch resp.StatusCode {
		case http.StatusCreated: // landed on the live slot
		case http.StatusBadGateway: // ErrNodeUnavailable from the dead primary
			sawDeadAdd = true
		default:
			t.Fatalf("add with a dead slot answered %d, want 201 (live slot) or 502 (dead slot)", resp.StatusCode)
		}
	}
	if !sawDeadAdd {
		t.Fatal("no probe add routed to the dead slot, or its failure was silent")
	}
}

// TestClusterTooManyKeywordsReturns400: the coordinator rejects a search
// naming more than 64 keywords itself — the client's fault, a 400 — rather
// than scattering it and reporting the nodes' refusals as a 502.
func TestClusterTooManyKeywordsReturns400(t *testing.T) {
	ns := httptest.NewServer(cluster.NewNode().Handler())
	defer ns.Close()
	coord, err := cluster.NewCoordinator(cluster.Config{Slots: [][]string{{ns.URL}}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewBackend(coord).Handler())
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/v1/documents", map[string]any{"name": "part-00.xml", "xml": fmt.Sprintf(clusterPartDoc, 0)}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("add: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/views", map[string]any{
		"name": "arts", "xquery": `for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`,
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("define view: %d %s", resp.StatusCode, body)
	}
	kws := make([]string, 65)
	for i := range kws {
		kws[i] = fmt.Sprintf("k%d", i)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "arts", "keywords": kws}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("65 keywords: %d %s, want 400", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/search", map[string]any{"view": "arts", "keywords": kws[:64]}); resp.StatusCode != http.StatusOK {
		t.Errorf("64 keywords: %d %s, want 200", resp.StatusCode, body)
	}
}

// TestClusterViewTooLargeReturns400: the coordinator compiles a view
// before pushing it, so a view past the QPT node bound, or one that reads
// a document by name and through a pattern, is a 400 and no member is
// contacted.
func TestClusterViewTooLargeReturns400(t *testing.T) {
	var calls atomic.Int64
	node := cluster.NewNode().Handler()
	ns := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		node.ServeHTTP(w, r)
	}))
	defer ns.Close()
	coord, err := cluster.NewCoordinator(cluster.Config{Slots: [][]string{{ns.URL}}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewBackend(coord).Handler())
	defer ts.Close()
	for _, c := range []struct{ name, view, why string }{
		{"doubling view", testkit.DoublingView(20), "too large"},
		{"overlapping references", overlappingView, "both by name and through"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/views", map[string]any{"name": "big", "xquery": c.view})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.why) {
			t.Errorf("%s: %d %s, want 400 saying %q", c.name, resp.StatusCode, body, c.why)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("coordinator contacted its member %d time(s) for a rejected view", n)
	}
}
