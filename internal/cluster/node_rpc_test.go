// Node RPC error taxonomy and protocol discipline, exercised at the wire
// level (an in-package test so it can craft raw vxmlcluster/2 requests):
// schema validation, stale-generation replies carrying the node's
// generation, mutation idempotency under retry, view self-healing, and
// per-node timeout failover.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vxml/internal/diskstore"
	"vxml/internal/testkit"
)

// postNode posts one JSON request to a node route and decodes the JSON
// reply (error bodies included) into out.
func postNode(t *testing.T, base, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+pathPrefix+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s reply: %v", path, err)
		}
	}
	return resp.StatusCode
}

const rpcTestDoc = `<books><article><fm><tl>copper</tl><au>author0</au><yr>1999</yr></fm><bdy>copper quartz</bdy></article></books>`

// TestNodeSchemaValidation pins both directions of the schema gate: the
// declared protocol version is accepted, and any other is rejected with a
// 400 naming the wanted schema. (The accept case is the regression guard —
// the check must read the schema the decoder filled in, not the zero value
// it had before decoding.)
func TestNodeSchemaValidation(t *testing.T) {
	srv := httptest.NewServer(NewNode().Handler())
	defer srv.Close()

	var ok map[string]string
	if code := postNode(t, srv.URL, "/views", viewRequest{
		Schema: Schema, Name: "v", XQuery: `for $a in fn:doc(x.xml)/books//article return <r>{$a/bdy}</r>`,
	}, &ok); code != http.StatusOK {
		t.Fatalf("well-formed %s request rejected with %d", Schema, code)
	}

	var eb errorBody
	if code := postNode(t, srv.URL, "/views", viewRequest{
		Schema: "vxmlcluster/99", Name: "v", XQuery: "x",
	}, &eb); code != http.StatusBadRequest {
		t.Fatalf("wrong-schema request answered %d, want 400", code)
	}
	if eb.Code != codeInvalid {
		t.Fatalf("wrong-schema error code %q, want %q", eb.Code, codeInvalid)
	}
}

// TestNodeRejectsDeepNesting: a view or document nested past its parser's
// limit is a 400/invalid reply — the code the coordinator reports as the
// client's fault — not a 500 it would count as the node failing.
func TestNodeRejectsDeepNesting(t *testing.T) {
	srv := httptest.NewServer(NewNode().Handler())
	defer srv.Close()
	for path, req := range map[string]any{
		"/views": viewRequest{Schema: Schema, Name: "deep",
			XQuery: strings.Repeat("(", 10_000) + "fn:doc(x.xml)//a" + strings.Repeat(")", 10_000)},
		"/documents": documentRequest{Schema: Schema, Op: "add", Name: "deep.xml", DocID: 1, SetGen: 1,
			XML: strings.Repeat("<a>", 1000) + "x" + strings.Repeat("</a>", 1000)},
	} {
		var eb errorBody
		if code := postNode(t, srv.URL, path, req, &eb); code != http.StatusBadRequest || eb.Code != codeInvalid {
			t.Errorf("%s: %d %q (%s), want 400 %q", path, code, eb.Code, eb.Error, codeInvalid)
		}
	}
}

// TestNodeStaleGenerationCarriesGen: a read at the wrong generation is
// rejected with 409/stale_generation and the node's own generation, which
// is what lets the coordinator tell a lagging replica from its own
// outdated vector.
func TestNodeStaleGenerationCarriesGen(t *testing.T) {
	n := NewNode()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	if code := postNode(t, srv.URL, "/documents", documentRequest{
		Schema: Schema, Op: "add", Name: "part-00.xml", XML: rpcTestDoc, DocID: 1, SetGen: 1,
	}, nil); code != http.StatusOK {
		t.Fatalf("add: %d", code)
	}
	if code := postNode(t, srv.URL, "/views", viewRequest{
		Schema: Schema, Name: "v",
		XQuery: `for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`,
	}, nil); code != http.StatusOK {
		t.Fatalf("view push: %d", code)
	}

	var eb errorBody
	if code := postNode(t, srv.URL, "/rank", rankRequest{
		Schema: Schema, View: "v", Keywords: []string{"copper"}, Gen: 7,
	}, &eb); code != http.StatusConflict {
		t.Fatalf("stale rank answered %d, want 409", code)
	}
	if eb.Code != codeStaleGeneration {
		t.Fatalf("stale rank code %q, want %q", eb.Code, codeStaleGeneration)
	}
	if eb.Gen != 1 {
		t.Fatalf("stale reply advertises generation %d, node is at 1", eb.Gen)
	}

	// At the right generation the same rank succeeds.
	var rr rankResponse
	if code := postNode(t, srv.URL, "/rank", rankRequest{
		Schema: Schema, View: "v", Keywords: []string{"copper"}, Gen: 1,
	}, &rr); code != http.StatusOK {
		t.Fatalf("in-generation rank answered %d", code)
	}
	if rr.Gen != 1 || rr.ViewSize != 1 || len(rr.Contains) != 1 {
		t.Fatalf("rank reply %+v, want gen=1 view_size=1 one contains entry", rr)
	}
	// Since vxmlcluster/2 the reply is core.ClusterRanking as it is, its
	// stats the /v1 search stats shape with nanosecond timings.
	if rr.Schema != "vxmlcluster/2" || rr.Stats == nil || rr.Stats.ViewSize != rr.ViewSize || rr.Stats.Matched != rr.Matched || rr.Stats.Total <= 0 {
		t.Fatalf("rank reply schema %q stats %+v, want vxmlcluster/2 stats agreeing with view_size %d, matched %d", rr.Schema, rr.Stats, rr.ViewSize, rr.Matched)
	}
	var raw struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	postNode(t, srv.URL, "/rank", rankRequest{Schema: Schema, View: "v", Keywords: []string{"copper"}, Gen: 1}, &raw)
	for _, key := range []string{"pdt_time_ns", "eval_time_ns", "post_time_ns", "total_ns", "view_size", "matched", "plan_source"} {
		if _, ok := raw.Stats[key]; !ok {
			t.Fatalf("rank reply stats %v lack %q", raw.Stats, key)
		}
	}
}

// TestNodeMutationIdempotentRetry: re-sending a mutation whose ack was
// lost must not double-apply — adds and replaces are idempotent on
// (name, doc_id), deletes on name.
func TestNodeMutationIdempotentRetry(t *testing.T) {
	n := NewNode()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	add := documentRequest{Schema: Schema, Op: "add", Name: "part-00.xml", XML: rpcTestDoc, DocID: 3, SetGen: 1}
	for i := 0; i < 2; i++ {
		var ack documentResponse
		if code := postNode(t, srv.URL, "/documents", add, &ack); code != http.StatusOK {
			t.Fatalf("add retry %d: %d", i, code)
		}
		if ack.Gen != 1 {
			t.Fatalf("add retry %d acked generation %d, want 1", i, ack.Gen)
		}
	}
	if n.Documents() != 1 {
		t.Fatalf("%d documents after an idempotent retry, want 1", n.Documents())
	}

	del := documentRequest{Schema: Schema, Op: "delete", Name: "part-00.xml", SetGen: 2}
	for i := 0; i < 2; i++ {
		if code := postNode(t, srv.URL, "/documents", del, nil); code != http.StatusOK {
			t.Fatalf("delete retry %d: %d", i, code)
		}
	}
	if n.Documents() != 0 || n.Gen() != 2 {
		t.Fatalf("after idempotent delete: %d documents at generation %d, want 0 at 2", n.Documents(), n.Gen())
	}
}

// TestDiskNodeMutationHydratesNothing: the mutation handler decides
// idempotency and acknowledges from document metadata, so on a disk-backed
// node an add, its retry and a replace never read a document through the
// document cache. The acknowledged byte length is the document's.
func TestDiskNodeMutationHydratesNothing(t *testing.T) {
	n, err := NewDiskNode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close() //nolint:errcheck
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	ds := n.engine.Store.(*diskstore.Store)
	before := ds.DiskStats().DocCache

	add := documentRequest{Schema: Schema, Op: "add", Name: "part-00.xml", XML: rpcTestDoc, DocID: 3, SetGen: 1}
	replaced := strings.Replace(rpcTestDoc, "quartz", "quartz basalt", 1)
	for i, req := range []documentRequest{add, add, {Schema: Schema, Op: "replace", Name: "part-00.xml", XML: replaced, DocID: 4, SetGen: 2}} {
		var ack documentResponse
		if code := postNode(t, srv.URL, "/documents", req, &ack); code != http.StatusOK {
			t.Fatalf("mutation %d (%s): %d", i, req.Op, code)
		}
		if ack.ByteLen != len(req.XML) {
			t.Fatalf("mutation %d (%s) acknowledged %d bytes, the document has %d", i, req.Op, ack.ByteLen, len(req.XML))
		}
	}
	if after := ds.DiskStats().DocCache; after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("mutations read the document cache: %+v -> %+v", before, after)
	}
}

// TestDiskNodeHealthHydratesNothing: a health probe counts a disk node's
// documents from metadata, so probing a reopened node — its documents on
// disk, none in memory — reads no document through the document cache and
// evicts none of the hot ones.
func TestDiskNodeHealthHydratesNothing(t *testing.T) {
	dir := t.TempDir()
	n, err := NewDiskNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(n.Handler())
	const docs = 3
	for i := 0; i < docs; i++ {
		req := documentRequest{Schema: Schema, Op: "add", Name: fmt.Sprintf("part-%02d.xml", i), XML: rpcTestDoc, DocID: int32(i + 1), SetGen: uint64(i + 1)}
		if code := postNode(t, srv.URL, "/documents", req, nil); code != http.StatusOK {
			t.Fatalf("adding %s: %d", req.Name, code)
		}
	}
	srv.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	if n, err = NewDiskNode(dir); err != nil {
		t.Fatal(err)
	}
	defer n.Close() //nolint:errcheck
	srv = httptest.NewServer(n.Handler())
	defer srv.Close()
	ds := n.engine.Store.(*diskstore.Store)
	before := ds.DiskStats()
	resp, err := http.Get(srv.URL + pathPrefix + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Documents != docs || n.Documents() != docs {
		t.Fatalf("health reports %d documents, Documents %d; want %d", health.Documents, n.Documents(), docs)
	}
	after := ds.DiskStats()
	if after.DocCache.Misses != before.DocCache.Misses || after.ResidentDocs != before.ResidentDocs {
		t.Fatalf("the health probe hydrated documents: misses %d -> %d, resident %d -> %d",
			before.DocCache.Misses, after.DocCache.Misses, before.ResidentDocs, after.ResidentDocs)
	}
}

// TestCoordinatorHealsUnpushedView: a node that answers unknown_view (a
// restarted member, or one that missed the define-time push) is healed by
// re-pushing the registered definition and the search retried — the caller
// never sees the miss.
func TestCoordinatorHealsUnpushedView(t *testing.T) {
	n := NewNode()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	c, err := NewCoordinator(Config{Slots: [][]string{{srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.AddDocument(ctx, "part-00.xml", rpcTestDoc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DefineView(ctx, "v",
		`for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`); err != nil {
		t.Fatal(err)
	}

	// Simulate the node forgetting the view (e.g. a restart that kept the
	// corpus but not the pushes).
	n.mu.Lock()
	delete(n.views, "v")
	n.mu.Unlock()

	results, _, err := c.Search(ctx, "v", []string{"copper"}, nil)
	if err != nil {
		t.Fatalf("search after the node lost the view: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results after heal, want 1", len(results))
	}
}

// TestNodeTimeoutFailsOver: a member that hangs past the per-RPC timeout
// is treated as down — the search fails over to the next member of the
// slot and succeeds, and the caller's own context stays intact.
func TestNodeTimeoutFailsOver(t *testing.T) {
	n := NewNode()
	good := httptest.NewServer(n.Handler())
	defer good.Close()
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hold every RPC until the test ends
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hang.Close()
	defer close(release) // LIFO: unblock the handlers before Close waits on them

	c, err := NewCoordinator(Config{
		Slots:   [][]string{{hang.URL, good.URL}},
		Timeout: 100 * time.Millisecond,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The mutation path must also fail over past the hanging... no: writes
	// route to the primary only. Seed the corpus through the good member by
	// reaching it directly at the node layer instead.
	if code := postNode(t, good.URL, "/documents", documentRequest{
		Schema: Schema, Op: "add", Name: "part-00.xml", XML: rpcTestDoc, DocID: 1, SetGen: 0,
	}, nil); code != http.StatusOK {
		t.Fatalf("seeding good member: %d", code)
	}
	if _, err := c.DefineView(ctx, "v",
		`for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	results, stats, err := c.Search(ctx, "v", []string{"copper"}, nil)
	if err != nil {
		t.Fatalf("search did not fail over past the hanging primary: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results via the replica, want 1", len(results))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("failover took %v; the per-node timeout did not bound the hang", elapsed)
	}
	var hungFailed, goodOK bool
	for _, ns := range stats.Nodes {
		if ns.URL == hang.URL && ns.State == "failed" {
			hungFailed = true
		}
		if ns.URL == good.URL && ns.State == "ok" {
			goodOK = true
		}
	}
	if !hungFailed || !goodOK {
		t.Fatalf("stats do not record the failover: %+v", stats.Nodes)
	}
	if ctx.Err() != nil {
		t.Fatal("the caller's context was canceled by the per-node timeout")
	}
}

// TestRoutingClassification drives the static analysis that decides how a
// view executes over the partitioned corpus: scatter for single-reference
// partitioned outer loops, single-node for broadcast or slot-local views,
// and a typed refusal when references span slots.
func TestRoutingClassification(t *testing.T) {
	// The member URLs are dead on purpose: DefineView's pushes are
	// best-effort, and classification itself never talks to a node. The
	// short timeout keeps those doomed pushes from slowing the test.
	c, err := NewCoordinator(Config{
		Slots:   [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:2"}},
		Timeout: 50 * time.Millisecond,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Register placement directly (the push to the dead members is
	// best-effort by design, so defineView still succeeds).
	c.docs["cat.xml"] = &docInfo{id: 1, slot: -1}
	c.docs["part-a.xml"] = &docInfo{id: 2, slot: 0}
	c.docs["part-b.xml"] = &docInfo{id: 3, slot: 1}

	ctx := context.Background()
	cases := []struct {
		name, xquery string
		scatter      bool
		slot         int // meaningful when !scatter
		unroutable   bool
	}{
		{"collection-scatter",
			`for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`,
			true, 0, false},
		{"collection-join-broadcast",
			`for $a in fn:collection("part-*")/books//article
			 return <r>{$a/fm/tl}, {for $u in fn:doc(cat.xml)/authors//author
			   where $u/name = $a/fm/au return $u/affil}</r>`,
			true, 0, false},
		{"broadcast-only",
			`for $u in fn:doc(cat.xml)/authors//author return <r>{$u/affil}</r>`,
			false, -1, false},
		{"single-partitioned-doc-scatters",
			// A lone partitioned reference still scatters: the other slots
			// contribute empty outputs, and the merge stays exact.
			`for $a in fn:doc(part-a.xml)/books//article return <r>{$a/bdy}</r>`,
			true, 0, false},
		{"self-join-pins-owning-slot",
			// The outer reference used twice is a self-join — it must not
			// scatter, and the owning slot serves it whole.
			`for $a in fn:doc(part-a.xml)/books//article
			 return <r>{$a/fm/tl}, {for $b in fn:doc(part-a.xml)/books//article
			   where $b/fm/yr = $a/fm/yr return $b/fm/au}</r>`,
			false, 0, false},
		{"cross-slot-join",
			`for $a in fn:doc(part-a.xml)/books//article
			 return <r>{$a/fm/tl}, {for $b in fn:doc(part-b.xml)/books//article
			   where $b/fm/au = $a/fm/au return $b/fm/yr}</r>`,
			false, 0, true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := c.DefineView(ctx, tt.name, tt.xquery); err != nil {
				t.Fatalf("define: %v", err)
			}
			c.mu.RLock()
			r, err := c.classifyLocked(c.views[tt.name])
			c.mu.RUnlock()
			if tt.unroutable {
				if err == nil {
					t.Fatalf("classified as %+v, want ErrUnroutableView", r)
				}
				return
			}
			if err != nil {
				t.Fatalf("classify: %v", err)
			}
			if r.scatter != tt.scatter {
				t.Fatalf("scatter = %v, want %v", r.scatter, tt.scatter)
			}
			if !tt.scatter && r.slot != tt.slot {
				t.Fatalf("slot = %d, want %d", r.slot, tt.slot)
			}
		})
	}
}

// TestExplainNamesRouteReason: the coordinator's explain names why a view
// that does not scatter does not — the partition rule's reason, or the
// registry check that follows it.
func TestExplainNamesRouteReason(t *testing.T) {
	c, err := NewCoordinator(Config{
		Slots:   [][]string{{"http://127.0.0.1:1"}, {"http://127.0.0.1:2"}},
		Timeout: 50 * time.Millisecond,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.docs["cat.xml"] = &docInfo{id: 1, slot: -1}
	c.docs["part-a.xml"] = &docInfo{id: 2, slot: 0}
	c.docs["part-c.xml"] = &docInfo{id: 3, slot: 0}
	ctx := context.Background()
	for _, tt := range []struct{ name, xquery, want string }{
		{"scatter", `for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`,
			"route: scatter-gather over 2 slot(s)"},
		{"self-join", `for $a in fn:doc(part-a.xml)/books//article
			 return <r>{for $b in fn:doc(part-a.xml)/books//article where $b/fm/yr = $a/fm/yr return $b/fm/au}</r>`,
			"route: single node, slot 0 (outer reference is used more than once)"},
		{"bare-path", `fn:doc(cat.xml)/authors//author`,
			"route: single node, any slot (no outer for clause)"},
		{"broadcast-outer", `for $u in fn:doc(cat.xml)/authors//author return <r>{$u/affil}</r>`,
			"route: single node, any slot (an outer document is broadcast)"},
		{"partitioned-side", `for $a in fn:doc(part-a.xml)/books//article
			 return <r>{for $c in fn:doc(part-c.xml)/books//article where $c/fm/au = $a/fm/au return $c/fm/tl}</r>`,
			"route: single node, slot 0 (a side document is partitioned)"},
	} {
		if _, err := c.DefineView(ctx, tt.name, tt.xquery); err != nil {
			t.Fatalf("%s: define: %v", tt.name, err)
		}
		out, err := c.Explain(ctx, tt.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tt.want) {
			t.Errorf("%s: explain missing %q:\n%s", tt.name, tt.want, out)
		}
	}
}

// TestBroadcastAddPartialFailureRepair: a broadcast add that acks on one
// slot and fails on another must not poison the write path. Three
// properties pin the repair: the consumed document ID is burned (a later
// add must not be rejected by the acked slot with "ID already in use"),
// the acked slot is compensated with a delete (an orphan would wedge any
// retry of the name as a duplicate), and once the dead slot returns the
// same add succeeds cluster-wide.
func TestBroadcastAddPartialFailureRepair(t *testing.T) {
	n0 := NewNode()
	live := httptest.NewServer(n0.Handler())
	defer live.Close()
	c, err := NewCoordinator(Config{
		Slots:   [][]string{{live.URL}, {"http://127.0.0.1:1"}},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// cat.xml does not match the partition patterns, so the add broadcasts:
	// slot 0 acks, slot 1 is unreachable.
	err = c.AddDocument(ctx, "cat.xml", rpcTestDoc)
	if !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("broadcast add with a dead slot: %v, want ErrNodeUnavailable", err)
	}
	if n0.Documents() != 0 {
		t.Fatalf("acked slot holds %d documents after the failed broadcast; compensation should have deleted the orphan", n0.Documents())
	}

	// A partitioned add owned by the live slot must succeed — without ID
	// reservation the burned ID was reused and the acked node rejected it.
	owned := ""
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("part-%02d.xml", i)
		if c.slotOf(name) == 0 {
			owned = name
			break
		}
	}
	if owned == "" {
		t.Fatal("no partitioned name hashing to slot 0 in 64 tries")
	}
	if err := c.AddDocument(ctx, owned, rpcTestDoc); err != nil {
		t.Fatalf("partitioned add to the live slot after a failed broadcast: %v", err)
	}

	// Once the dead slot comes back, the same broadcast name is retryable:
	// compensation left no orphan on slot 0 to collide with.
	n1 := NewNode()
	revived := httptest.NewServer(n1.Handler())
	defer revived.Close()
	c.cfg.Slots[1][0] = revived.URL
	if err := c.AddDocument(ctx, "cat.xml", rpcTestDoc); err != nil {
		t.Fatalf("broadcast add after the slot recovered: %v", err)
	}
	if n0.Documents() != 2 || n1.Documents() != 1 {
		t.Fatalf("documents after recovery: slot0=%d slot1=%d, want 2 and 1", n0.Documents(), n1.Documents())
	}
}

// TestNodeRejectsTooManyKeywords: a rank or search naming more than 64
// keywords is a 400/invalid reply, the client's fault, not a node failure.
func TestNodeRejectsTooManyKeywords(t *testing.T) {
	srv := httptest.NewServer(NewNode().Handler())
	defer srv.Close()
	if code := postNode(t, srv.URL, "/documents", documentRequest{
		Schema: Schema, Op: "add", Name: "part-00.xml", XML: rpcTestDoc, DocID: 1, SetGen: 1,
	}, nil); code != http.StatusOK {
		t.Fatalf("add: %d", code)
	}
	if code := postNode(t, srv.URL, "/views", viewRequest{
		Schema: Schema, Name: "v",
		XQuery: `for $a in fn:collection("part-*")/books//article return <r>{$a/bdy}</r>`,
	}, nil); code != http.StatusOK {
		t.Fatalf("view push: %d", code)
	}
	kws := make([]string, 65)
	for i := range kws {
		kws[i] = fmt.Sprintf("k%d", i)
	}
	for path, req := range map[string]any{
		"/rank":   rankRequest{Schema: Schema, View: "v", Keywords: kws, Gen: 1},
		"/search": searchRequest{Schema: Schema, View: "v", Keywords: kws, Gen: 1},
	} {
		var eb errorBody
		if code := postNode(t, srv.URL, path, req, &eb); code != http.StatusBadRequest || eb.Code != codeInvalid {
			t.Errorf("%s: %d %q (%s), want 400 %q", path, code, eb.Code, eb.Error, codeInvalid)
		}
	}
}

// TestNodeRejectsViewTooLarge: a pushed view whose function calls expand
// past the QPT node bound is a 400/invalid reply, and the node does not
// register it.
func TestNodeRejectsViewTooLarge(t *testing.T) {
	n := NewNode()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	var eb errorBody
	code := postNode(t, srv.URL, "/views", viewRequest{Schema: Schema, Name: "big", XQuery: testkit.DoublingView(20)}, &eb)
	if code != http.StatusBadRequest || eb.Code != codeInvalid {
		t.Errorf("doubling view push: %d %q (%s), want 400 %q", code, eb.Code, eb.Error, codeInvalid)
	}
	if len(n.views) != 0 {
		t.Errorf("node registered %d views after the rejected push", len(n.views))
	}
}
