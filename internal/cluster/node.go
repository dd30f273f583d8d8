package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"vxml"
	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// nodeMaxBodyBytes caps node RPC request bodies, matching the public HTTP
// layer's document cap.
const nodeMaxBodyBytes = 64 << 20

// Node is one cluster member: a full single-process search engine over its
// slice of the corpus (one hash partition plus every broadcast document),
// exposed through the vxmlcluster/2 RPC surface. Create one with NewNode
// (empty) or NewNodeFromSnapshot (replica bootstrap) and serve Handler.
type Node struct {
	// mu orders reads against mutations and is the node's entire
	// generation-correctness argument: every read handler holds it shared
	// for its whole pipeline and stamps the reply with gen read under it;
	// every mutation holds it exclusively across [apply + adopt new
	// generation]. A reply stamped generation g was therefore computed on
	// exactly the generation-g corpus — never on a half-applied one.
	mu     sync.RWMutex
	engine *core.Engine
	gen    uint64
	views  map[string]*core.View
	// bootDir holds a disk-backed replica's received block files for the
	// node's lifetime; Close removes it. Empty for heap-backed nodes.
	bootDir string
}

// Close releases backend resources: a disk-backed node's store file
// handles and the temp directory its snapshot bootstrap received. It is a
// no-op for heap-backed nodes.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var err error
	if c, ok := n.engine.Store.(io.Closer); ok {
		err = c.Close()
	}
	if n.bootDir != "" {
		if rerr := os.RemoveAll(n.bootDir); err == nil {
			err = rerr
		}
		n.bootDir = ""
	}
	return err
}

// NewNode creates an empty node at generation zero.
func NewNode() *Node {
	return &Node{
		engine: core.New(store.NewSharded(0)),
		views:  map[string]*core.View{},
	}
}

// NewDiskNode creates a node whose corpus slice lives in a disk-resident,
// DAG-compressed store at dir (created empty on first run, reopened with
// its persisted documents otherwise). The node still starts at generation
// zero: generation is coordinator state, adopted per acknowledged
// mutation, so a restarted disk node rejoins as a fresh member that
// happens to hold its slice already — the coordinator's generation check
// decides whether that slice is current. Snapshots from a disk node ship
// its block files verbatim.
func NewDiskNode(dir string) (*Node, error) {
	var ds *diskstore.Store
	var err error
	if diskstore.Exists(dir) {
		ds, err = diskstore.Open(dir)
	} else {
		ds, err = diskstore.Init(dir, 0, diskstore.Options{})
	}
	if err != nil {
		return nil, err
	}
	return &Node{
		engine: core.New(ds),
		views:  map[string]*core.View{},
	}, nil
}

// Gen returns the node's current corpus generation.
func (n *Node) Gen() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.gen
}

// Documents reports the number of documents the node holds.
func (n *Node) Documents() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.engine.Store.Docs())
}

// nodeRoutes is the single source of the RPC routing table: Handler
// registers it and Routes exposes it, so the docs-drift test can hold
// docs/API.md to exactly this list.
func (n *Node) nodeRoutes() []struct {
	method, path string
	handler      http.HandlerFunc
} {
	return []struct {
		method, path string
		handler      http.HandlerFunc
	}{
		{"GET", "/health", n.handleHealth},
		{"POST", "/views", n.handleView},
		{"POST", "/documents", n.handleDocument},
		{"POST", "/rank", n.handleRank},
		{"POST", "/materialize", n.handleMaterialize},
		{"POST", "/search", n.handleSearch},
		{"GET", "/snapshot", n.handleSnapshot},
	}
}

// Handler returns the node's RPC surface (all routes under /cluster/v1).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range n.nodeRoutes() {
		mux.HandleFunc(r.method+" "+pathPrefix+r.path, r.handler)
	}
	return mux
}

// Routes lists the node RPC surface as "METHOD /cluster/v1/path" strings,
// in registration order — the docs-drift test's source of truth.
func (n *Node) Routes() []string {
	var out []string
	for _, r := range n.nodeRoutes() {
		out = append(out, r.method+" "+pathPrefix+r.path)
	}
	return out
}

// nodeDecode decodes a JSON request body strictly (unknown fields rejected,
// size-capped) and validates the protocol schema. schema points into dst
// (it can only be read after the decode fills it).
func nodeDecode(w http.ResponseWriter, r *http.Request, dst any, schema *string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, nodeMaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		nodeJSON(w, status, errorBody{Error: "decoding request: " + err.Error(), Code: codeInvalid})
		return false
	}
	if *schema != Schema {
		nodeJSON(w, http.StatusBadRequest, errorBody{
			Error: fmt.Sprintf("schema %q not supported (want %q)", *schema, Schema), Code: codeInvalid})
		return false
	}
	return true
}

// nodeJSON writes one JSON response with the given status.
func nodeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// statusClientClosedRequest mirrors the public HTTP layer's non-standard
// nginx convention for a canceled request context.
const statusClientClosedRequest = 499

// nodeErrorFor maps an engine error onto the node error taxonomy.
func nodeErrorFor(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, codeInternal
	var pe *xq.ParseError
	switch {
	case errors.Is(err, context.Canceled):
		status, code = statusClientClosedRequest, codeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusRequestTimeout, codeDeadline
	case errors.Is(err, core.ErrUnknownDocument):
		status, code = http.StatusNotFound, codeUnknownDocument
	case errors.Is(err, store.ErrDuplicateName):
		status, code = http.StatusConflict, codeDuplicate
	case errors.As(err, &pe), errors.Is(err, xmltree.ErrTooDeep), errors.Is(err, core.ErrUnpartitionableView),
		errors.Is(err, core.ErrInvalidOptions), errors.Is(err, vxml.ErrViewTooLarge):
		status, code = http.StatusBadRequest, codeInvalid
	}
	nodeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// staleError rejects a read or mutation whose generation does not match,
// reporting the node's current generation so the coordinator can tell a
// lagging replica from its own outdated vector.
func staleError(w http.ResponseWriter, want, have uint64) {
	nodeJSON(w, http.StatusConflict, errorBody{
		Error: fmt.Sprintf("request generation %d, node at %d", want, have),
		Code:  codeStaleGeneration,
		Gen:   have,
	})
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nodeJSON(w, http.StatusOK, healthResponse{
		Schema:     Schema,
		Gen:        n.gen,
		Documents:  len(n.engine.Store.Docs()),
		TotalBytes: n.engine.Store.TotalBytes(),
		Views:      len(n.views),
	})
}

// handleView registers a coordinator-pushed view. It is compiled without
// the literal-document existence check (core.Compile alone): the
// coordinator validated the definition against the cluster-wide registry,
// and this node holds only its partition. A re-push of an existing name
// overwrites — pushes are idempotent and the coordinator is authoritative.
func (n *Node) handleView(w http.ResponseWriter, r *http.Request) {
	var req viewRequest
	if !nodeDecode(w, r, &req, &req.Schema) {
		return
	}
	if req.Name == "" || req.XQuery == "" {
		nodeJSON(w, http.StatusBadRequest, errorBody{Error: "name and xquery are required", Code: codeInvalid})
		return
	}
	v, err := core.Compile(req.XQuery)
	if err != nil {
		nodeErrorFor(w, err)
		return
	}
	n.mu.Lock()
	n.views[req.Name] = v
	n.mu.Unlock()
	nodeJSON(w, http.StatusOK, map[string]string{"name": req.Name})
}

// handleDocument applies one coordinator-routed mutation and adopts the
// generation the coordinator assigned. Adds and replaces are idempotent on
// (name, doc_id) and deletes on name, so the coordinator may safely retry a
// mutation whose acknowledgment was lost; the registry on the coordinator —
// not this handler — is what rejects user-level errors like deleting a name
// that was never added.
func (n *Node) handleDocument(w http.ResponseWriter, r *http.Request) {
	var req documentRequest
	if !nodeDecode(w, r, &req, &req.Schema) {
		return
	}
	if req.Name == "" {
		nodeJSON(w, http.StatusBadRequest, errorBody{Error: "name is required", Code: codeInvalid})
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var err error
	switch req.Op {
	case "add":
		if cur, ok := n.engine.Store.Info(req.Name); ok && cur.DocID == req.DocID {
			break // idempotent retry: already applied
		}
		err = n.engine.AddXMLAt(req.Name, req.XML, req.DocID)
	case "replace":
		if cur, ok := n.engine.Store.Info(req.Name); ok && cur.DocID == req.DocID {
			break // idempotent retry
		}
		err = n.engine.ReplaceXMLAt(req.Name, req.XML, req.DocID)
	case "delete":
		if _, ok := n.engine.Store.Info(req.Name); ok {
			err = n.engine.Delete(req.Name)
		}
	default:
		nodeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("unknown op %q", req.Op), Code: codeInvalid})
		return
	}
	if err != nil {
		nodeErrorFor(w, err)
		return
	}
	n.gen = req.SetGen
	resp := documentResponse{Gen: n.gen}
	if cur, ok := n.engine.Store.Info(req.Name); ok {
		resp.ByteLen = cur.Bytes
	}
	nodeJSON(w, http.StatusOK, resp)
}

// serveRead is the preamble every read handler shares: decode req
// strictly, then hold the read lock while the requested generation and view
// check out and serve runs, so a reply stamped gen was computed on exactly
// the generation-gen corpus. schema, view and gen point into req (they can
// only be read after the decode fills it). A check that fails writes its
// own error reply.
func (n *Node) serveRead(w http.ResponseWriter, r *http.Request, req any, schema, view *string, gen *uint64, serve func(v *core.View)) {
	if !nodeDecode(w, r, req, schema) {
		return
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if *gen != n.gen {
		staleError(w, *gen, n.gen)
		return
	}
	v := n.views[*view]
	if v == nil {
		nodeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown view %q", *view), Code: codeUnknownView})
		return
	}
	serve(v)
}

// writeLines streams a read reply as NDJSON: count data lines, each
// flushed as it is written, then the done line. A failed write means the
// client is gone; the missing done line reports the truncation.
func writeLines(w http.ResponseWriter, count int, line func(i int) replyLine, done replyLine) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := 0; i < count; i++ {
		if err := enc.Encode(line(i)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(done)
}

func (n *Node) handleRank(w http.ResponseWriter, r *http.Request) {
	var req rankRequest
	n.serveRead(w, r, &req, &req.Schema, &req.View, &req.Gen, func(v *core.View) {
		rk, err := n.engine.ClusterRank(r.Context(), v, req.Keywords,
			core.Options{Disjunctive: req.Disjunctive, Parallelism: req.Parallelism})
		if err != nil {
			nodeErrorFor(w, err)
			return
		}
		nodeJSON(w, http.StatusOK, rankResponse{Schema: Schema, Gen: n.gen, ClusterRanking: *rk})
	})
}

func (n *Node) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	var req materializeRequest
	n.serveRead(w, r, &req, &req.Schema, &req.View, &req.Gen, func(v *core.View) {
		out, fetches, err := n.engine.MaterializeAt(r.Context(), v, req.Keywords,
			core.Options{Disjunctive: req.Disjunctive, Parallelism: req.Parallelism}, req.Positions)
		if err != nil {
			nodeErrorFor(w, err)
			return
		}
		writeLines(w, len(out), func(i int) replyLine {
			return replyLine{Pos: &out[i].Pos, XML: out[i].Element.XMLString(""), Snippet: out[i].Snippet}
		}, replyLine{Done: true, Gen: n.gen, Fetches: fetches})
	})
}

// handleSearch serves a complete search on this node — the route for views
// whose referenced documents all live here, where scatter would be wrong
// (a join against a partitioned document) or pointless (one slot holds
// everything needed). Semantics mirror the in-process Efficient pipeline
// exactly: rank the top TopK, stream winners from Offset on with absolute
// ranks.
func (n *Node) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	n.serveRead(w, r, &req, &req.Schema, &req.View, &req.Gen, func(v *core.View) {
		copts := core.Options{K: req.TopK, Disjunctive: req.Disjunctive, Parallelism: req.Parallelism}
		results, cs, err := n.engine.SearchPage(r.Context(), v, req.Keywords, copts, req.Offset)
		if err != nil {
			nodeErrorFor(w, err)
			return
		}
		writeLines(w, len(results), func(i int) replyLine {
			res := results[i]
			return replyLine{Rank: res.Rank, Score: res.Score, TFs: res.TFs,
				XML: res.Element.XMLString(""), Snippet: res.Snippet}
		}, replyLine{Done: true, Gen: n.gen, Stats: cs})
	})
}
