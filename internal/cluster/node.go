package cluster

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/httpkit"
	"vxml/internal/store"
)

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
	// streams writes the NDJSON replies of /materialize, /search and
	// /snapshot, rolling each line's write deadline.
	streams httpkit.Streams
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
func NewNode() *Node { return newNode(store.NewSharded(0)) }

// newNode creates a node at generation zero over corpus.
func newNode(corpus store.Corpus) *Node {
	return &Node{engine: core.New(corpus), views: map[string]*core.View{}}
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
	ds, err := diskstore.OpenOrInit(dir, diskstore.Options{})
	if err != nil {
		return nil, err
	}
	return newNode(ds), nil
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
	return n.documentsLocked()
}

// documentsLocked counts the node's documents from the corpus metadata, so
// a health probe of a disk node pages no tree in.
func (n *Node) documentsLocked() int {
	total := 0
	for _, sh := range n.engine.Store.ShardInfos() {
		total += sh.Documents
	}
	return total
}

// table is the node's single routing table, under pathPrefix.
func (n *Node) table() httpkit.Table {
	return httpkit.Table{
		{Method: "GET", Path: "/health", Handler: n.handleHealth},
		{Method: "POST", Path: "/views", Handler: n.handleView},
		{Method: "POST", Path: "/documents", Handler: n.handleDocument},
		{Method: "POST", Path: "/rank", Handler: n.handleRank},
		{Method: "POST", Path: "/materialize", Handler: n.handleMaterialize},
		{Method: "POST", Path: "/search", Handler: n.handleSearch},
		{Method: "GET", Path: "/snapshot", Handler: n.handleSnapshot},
	}
}

// Handler returns the node's RPC surface (all routes under /cluster/v1).
func (n *Node) Handler() http.Handler { return n.table().Handler(pathPrefix) }

// Routes lists the node RPC surface as "METHOD /cluster/v1/path" strings,
// in registration order — the docs-drift test's source of truth.
func (n *Node) Routes() []string { return n.table().Routes(pathPrefix) }

// decodeRequest reads a request body through the shared strict decoder,
// then checks its protocol schema (schema points into dst, so it is read
// only after the decode fills it). A failure writes its own reply.
func decodeRequest(w http.ResponseWriter, r *http.Request, dst any, schema *string) bool {
	if status, err := httpkit.Decode(w, r, dst); err != nil {
		writeError(w, status, "decoding request: "+err.Error())
		return false
	}
	if *schema != Schema {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("schema %q not supported (want %q)", *schema, Schema))
		return false
	}
	return true
}

// writeError writes a node error reply whose typed code follows from its
// status. The two codes a status cannot tell apart from another —
// unknown_view and stale_generation — are written by their handlers.
func writeError(w http.ResponseWriter, status int, msg string) {
	code := codeInternal
	switch status {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		code = codeInvalid
	case http.StatusNotFound:
		code = codeUnknownDocument
	case http.StatusConflict:
		code = codeDuplicate
	case http.StatusRequestTimeout:
		code = codeDeadline
	case httpkit.StatusClientClosedRequest:
		code = codeCanceled
	}
	httpkit.WriteJSON(w, status, httpkit.ErrorBody{Error: msg, Code: code})
}

// writeEngineError replies to an engine failure with the shared taxonomy's
// status.
func writeEngineError(w http.ResponseWriter, err error) {
	writeError(w, httpkit.StatusFor(err), err.Error())
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	httpkit.WriteJSON(w, http.StatusOK, healthResponse{
		Schema:     Schema,
		Gen:        n.gen,
		Documents:  n.documentsLocked(),
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
	if !decodeRequest(w, r, &req, &req.Schema) {
		return
	}
	if req.Name == "" || req.XQuery == "" {
		writeError(w, http.StatusBadRequest, "name and xquery are required")
		return
	}
	v, err := core.Compile(req.XQuery)
	if err != nil {
		writeEngineError(w, err)
		return
	}
	n.mu.Lock()
	n.views[req.Name] = v
	n.mu.Unlock()
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"name": req.Name})
}

// handleDocument applies one coordinator-routed mutation and adopts the
// generation the coordinator assigned. Adds and replaces are idempotent on
// (name, doc_id) and deletes on name, so the coordinator may safely retry a
// mutation whose acknowledgment was lost; the registry on the coordinator —
// not this handler — is what rejects user-level errors like deleting a name
// that was never added.
func (n *Node) handleDocument(w http.ResponseWriter, r *http.Request) {
	var req documentRequest
	if !decodeRequest(w, r, &req, &req.Schema) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "name is required")
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
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown op %q", req.Op))
		return
	}
	if err != nil {
		writeEngineError(w, err)
		return
	}
	n.gen = req.SetGen
	resp := documentResponse{Gen: n.gen}
	if cur, ok := n.engine.Store.Info(req.Name); ok {
		resp.ByteLen = cur.Bytes
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}

// serveRead is the preamble every read handler shares: decode req
// strictly, then hold the read lock while the requested generation and view
// check out and serve runs, so a reply stamped gen was computed on exactly
// the generation-gen corpus. schema, view and gen point into req (they can
// only be read after the decode fills it). A check that fails writes its
// own error reply.
func (n *Node) serveRead(w http.ResponseWriter, r *http.Request, req any, schema, view *string, gen *uint64, serve func(v *core.View)) {
	if !decodeRequest(w, r, req, schema) {
		return
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if *gen != n.gen {
		// The node's own generation lets the coordinator tell a lagging
		// replica from its own outdated vector.
		httpkit.WriteJSON(w, http.StatusConflict, httpkit.ErrorBody{
			Error: fmt.Sprintf("request generation %d, node at %d", *gen, n.gen), Code: codeStaleGeneration, Gen: n.gen})
		return
	}
	v := n.views[*view]
	if v == nil {
		httpkit.WriteJSON(w, http.StatusNotFound, httpkit.ErrorBody{Error: fmt.Sprintf("unknown view %q", *view), Code: codeUnknownView})
		return
	}
	serve(v)
}

func (n *Node) handleRank(w http.ResponseWriter, r *http.Request) {
	var req rankRequest
	n.serveRead(w, r, &req, &req.Schema, &req.View, &req.Gen, func(v *core.View) {
		rk, err := n.engine.ClusterRank(r.Context(), v, req.Keywords,
			core.Options{Disjunctive: req.Disjunctive, Parallelism: req.Parallelism})
		if err != nil {
			writeEngineError(w, err)
			return
		}
		httpkit.WriteJSON(w, http.StatusOK, rankResponse{Schema: Schema, Gen: n.gen, ClusterRanking: *rk})
	})
}

func (n *Node) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	var req materializeRequest
	n.serveRead(w, r, &req, &req.Schema, &req.View, &req.Gen, func(v *core.View) {
		out, fetches, err := n.engine.MaterializeAt(r.Context(), v, req.Keywords,
			core.Options{Disjunctive: req.Disjunctive, Parallelism: req.Parallelism}, req.Positions)
		if err != nil {
			writeEngineError(w, err)
			return
		}
		st := n.streams.Open(w)
		for i := range out {
			if st.Line(replyLine{Pos: &out[i].Pos, XML: out[i].Element.XMLString(""), Snippet: out[i].Snippet}) != nil {
				return // the client is gone; the missing done line reports it
			}
		}
		st.Line(replyLine{Done: true, Gen: n.gen, Fetches: fetches}) //nolint:errcheck
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
			writeEngineError(w, err)
			return
		}
		st := n.streams.Open(w)
		for _, res := range results {
			if st.Line(replyLine{Rank: res.Rank, Score: res.Score, TFs: res.TFs,
				XML: res.Element.XMLString(""), Snippet: res.Snippet}) != nil {
				return // the client is gone; the missing done line reports it
			}
		}
		st.Line(replyLine{Done: true, Gen: n.gen, Stats: cs}) //nolint:errcheck
	})
}
