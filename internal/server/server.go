// Package server exposes a search backend as a JSON HTTP service: a
// single-process vxml.Database (New) or a cluster coordinator, which is a
// Backend itself (NewBackend). All handlers share the one backend; its
// internal locking makes concurrent requests safe, so the server adds
// synchronization only for a database's named view registry. Routing,
// decoding, error bodies, the status taxonomy and NDJSON streaming come
// from internal/httpkit, which a cluster node's /cluster/v1 surface shares.
//
// Endpoints (all under /v1; there are no unversioned paths):
//
//	POST   /v1/documents        {"name": "books.xml", "xml": "<books>...</books>"}
//	PUT    /v1/documents/{name} {"xml": "<books>...</books>"}  (replace; 404 if absent)
//	DELETE /v1/documents/{name}                                (404 if absent)
//	POST /v1/views          {"name": "recent", "xquery": "for $b in ..."}
//	POST /v1/search         {"view": "recent", "keywords": ["xml","search"],
//	                         "top_k": 10, "offset": 0, "disjunctive": false,
//	                         "cache": true}
//	POST /v1/search/stream  same request; responds with NDJSON, one result
//	                        object per line, written as the pipeline yields
//	                        each ranked winner
//	POST /v1/explain        {"view": "recent", "keywords": ["xml","search"]}
//	                        renders the query plan without evaluating
//	                        anything
//	GET  /v1/stats
//
// Every search runs under the request's context, so a client that
// disconnects or times out cancels the pipeline mid-flight. Failures map
// through the vxml error taxonomy: malformed JSON, XQuery (ParseError) or
// options (ErrInvalidOptions) yield 400 with diagnostics, an unknown view
// or document 404, a deadline 408, a duplicate document or view name 409,
// and a canceled request 499 (the nginx convention for "client closed
// request").
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/diskstore"
	"vxml/internal/httpkit"
	"vxml/internal/store"
)

// Server routes HTTP requests to a shared Backend — a single-process
// Database or a cluster Coordinator — and its named view registry.
type Server struct {
	backend  Backend
	started  time.Time
	readOnly atomic.Bool
	// streams writes /v1/search/stream replies (tests shorten its grace
	// and capture its log).
	streams httpkit.Streams
}

// New builds a server around a single-process database with an empty view
// registry.
func New(db *vxml.Database) *Server {
	return NewBackend(newDBBackend(db))
}

// NewBackend builds a server around an arbitrary Backend. A
// *cluster.Coordinator serves the public /v1 API through it with the same
// routes, wire shapes and byte-identical results — plus the degraded-mode
// surface (502 partial results with per-node status) only a distributed
// backend can produce.
func NewBackend(b Backend) *Server {
	return &Server{backend: b, started: time.Now()}
}

// SetReadOnly gates the corpus-mutating routes (POST/PUT/DELETE under
// /documents): when set, they answer 403 and the corpus can only change
// through whatever loaded it at startup. Views may still be defined — they
// are derived, not base data. The flag is atomic, so it can be flipped
// while the handler is serving: requests observe either the old or the new
// setting, never a torn state.
func (s *Server) SetReadOnly(v bool) { s.readOnly.Store(v) }

// DefineView compiles and registers a view under name (used by the binary
// to pre-register views from the command line; the HTTP path is POST
// /views). Registering an existing name replaces it.
func (s *Server) DefineView(name, xquery string) error {
	_, err := s.backend.DefineView(context.Background(), name, xquery, true)
	return err
}

// table is the server's single routing table, under /v1.
func (s *Server) table() httpkit.Table {
	return httpkit.Table{
		{Method: "POST", Path: "/documents", Handler: s.handleAddDocument},
		{Method: "PUT", Path: "/documents/{name}", Handler: s.handleReplaceDocument},
		{Method: "DELETE", Path: "/documents/{name}", Handler: s.handleDeleteDocument},
		{Method: "POST", Path: "/views", Handler: s.handleDefineView},
		{Method: "POST", Path: "/search", Handler: s.handleSearch},
		{Method: "POST", Path: "/search/stream", Handler: s.handleSearchStream},
		{Method: "POST", Path: "/explain", Handler: s.handleExplain},
		{Method: "GET", Path: "/stats", Handler: s.handleStats},
	}
}

// Routes returns every registered route in its canonical /v1 form, e.g.
// "POST /v1/search". The docs-drift test cross-checks this list against
// docs/API.md in both directions, so the API reference cannot rot silently.
func (s *Server) Routes() []string { return s.table().Routes("/v1") }

// Handler returns the HTTP routing table: every route, under /v1 only.
func (s *Server) Handler() http.Handler { return s.table().Handler("/v1") }

// writeError writes a /v1 error reply: the message alone, with no code.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	httpkit.WriteJSON(w, status, httpkit.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a request body through the shared strict decoder,
// writing the error reply itself when it returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	if status, err := httpkit.Decode(w, r, into); err != nil {
		writeError(w, status, "decoding request body: %v", err)
		return false
	}
	return true
}

// bodyStatus is StatusFor for a failure of what the request body carried
// — a document or a view definition. A failure the taxonomy leaves
// unclassified (an XML parse error, a compile rejection) still means the
// client's body was unusable, so it answers 400, not 500.
func bodyStatus(err error) int {
	if status := httpkit.StatusFor(err); status != http.StatusInternalServerError {
		return status
	}
	return http.StatusBadRequest
}

type addDocumentRequest struct {
	Name string `json:"name"`
	XML  string `json:"xml"`
}

type addDocumentResponse struct {
	Name      string   `json:"name"`
	Documents []string `json:"documents"`
}

// forbidMutation enforces SetReadOnly for the corpus-mutating handlers,
// writing the 403 itself when it returns true. The flag is loaded exactly
// once per call, so a concurrent toggle cannot make this answer 403 and
// then let the mutation through anyway (or vice versa).
func (s *Server) forbidMutation(w http.ResponseWriter) bool {
	if !s.readOnly.Load() {
		return false
	}
	writeError(w, http.StatusForbidden, "server is read-only: document mutation is disabled")
	return true
}

func (s *Server) handleAddDocument(w http.ResponseWriter, r *http.Request) {
	if s.forbidMutation(w) {
		return
	}
	var req addDocumentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.XML == "" {
		writeError(w, http.StatusBadRequest, "both name and xml are required")
		return
	}
	if err := s.backend.AddDocument(r.Context(), req.Name, req.XML); err != nil {
		writeError(w, bodyStatus(err), "adding document: %v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusCreated, addDocumentResponse{Name: req.Name, Documents: s.backend.DocumentNames()})
}

// replaceDocumentRequest is the body of PUT /v1/documents/{name}; the name
// comes from the path, so only the new content travels in the body.
type replaceDocumentRequest struct {
	XML string `json:"xml"`
}

// handleReplaceDocument is PUT /v1/documents/{name}: atomically swap the
// named document's content. The replacement is visible to every search that
// starts after the response, on every pipeline; searches in flight complete
// against the old content. 404 for a name that was never added (PUT does
// not upsert — a typoed name should fail loudly, not fork the corpus), 400
// for malformed XML.
func (s *Server) handleReplaceDocument(w http.ResponseWriter, r *http.Request) {
	if s.forbidMutation(w) {
		return
	}
	name := r.PathValue("name")
	var req replaceDocumentRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.XML == "" {
		writeError(w, http.StatusBadRequest, "xml is required")
		return
	}
	if err := s.backend.ReplaceDocument(r.Context(), name, req.XML); err != nil {
		writeError(w, bodyStatus(err), "replacing document: %v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, addDocumentResponse{Name: name, Documents: s.backend.DocumentNames()})
}

// handleDeleteDocument is DELETE /v1/documents/{name}: remove the named
// document from the corpus. Subsequent searches no longer see it (a literal
// fn:doc view over the name yields nothing; collection patterns skip it);
// searches in flight complete against the old corpus. 404 for an unknown
// name.
func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	if s.forbidMutation(w) {
		return
	}
	name := r.PathValue("name")
	if err := s.backend.DeleteDocument(r.Context(), name); err != nil {
		writeError(w, httpkit.StatusFor(err), "deleting document: %v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, addDocumentResponse{Name: name, Documents: s.backend.DocumentNames()})
}

type defineViewRequest struct {
	Name   string `json:"name"`
	XQuery string `json:"xquery"`
}

type defineViewResponse struct {
	Name       string `json:"name"`
	Definition string `json:"definition"`
}

func (s *Server) handleDefineView(w http.ResponseWriter, r *http.Request) {
	var req defineViewRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.XQuery == "" {
		writeError(w, http.StatusBadRequest, "both name and xquery are required")
		return
	}
	// Cheap name pre-check so a duplicate registration (e.g. a client
	// retry) is rejected before paying for the compile; the backend
	// registry re-checks, and stays authoritative.
	if s.backend.HasView(req.Name) {
		writeError(w, http.StatusConflict, "view %q already defined", req.Name)
		return
	}
	definition, err := s.backend.DefineView(r.Context(), req.Name, req.XQuery, false)
	if err != nil {
		if errors.Is(err, vxml.ErrDuplicateView) {
			writeError(w, http.StatusConflict, "view %q already defined", req.Name)
			return
		}
		// Parse and compile diagnostics go to the caller: a ParseError is
		// the malformed-XQuery → 400 path, an unknown fn:doc reference →
		// 404.
		writeError(w, bodyStatus(err), "compiling view: %v", err)
		return
	}
	httpkit.WriteJSON(w, http.StatusCreated, defineViewResponse{Name: req.Name, Definition: definition})
}

type searchRequest struct {
	View        string   `json:"view"`
	Keywords    []string `json:"keywords"`
	TopK        int      `json:"top_k"`
	Disjunctive bool     `json:"disjunctive"`
	Cache       bool     `json:"cache"`
	// Offset skips that many leading ranked results before top_k applies
	// (pagination); rank numbers keep their absolute position, and pages
	// of one query share a single cache entry.
	Offset int `json:"offset"`
	// Parallelism bounds the search's worker pool: 0 = GOMAXPROCS (the
	// default), 1 = sequential. Results are identical at every setting.
	Parallelism int `json:"parallelism"`
}

// searchResponse is the body of POST /v1/search: the library's own result
// and stats shapes, encoded as they are.
type searchResponse struct {
	Results []vxml.Result `json:"results"`
	Stats   *vxml.Stats   `json:"stats"`
	// Error is set when the response is a degraded partial-cluster answer
	// (status 502): Results covers only the surviving partitions.
	Error string `json:"error,omitempty"`
}

// resolveSearch decodes and validates a search request body against the
// view registry, writing the error response itself when it returns ok =
// false. The wire-level range checks reject instead of normalizing — an
// HTTP client sending top_k: -1 is confused, and a 400 tells it so — while
// library callers get normalization; both land on the same canonical
// options.
func (s *Server) resolveSearch(w http.ResponseWriter, r *http.Request) (string, *vxml.Options, []string, bool) {
	var req searchRequest
	if !decodeBody(w, r, &req) {
		return "", nil, nil, false
	}
	if len(req.Keywords) == 0 {
		writeError(w, http.StatusBadRequest, "keywords are required")
		return "", nil, nil, false
	}
	if req.TopK < 0 {
		writeError(w, http.StatusBadRequest, "top_k must be >= 0 (0 returns all results), got %d", req.TopK)
		return "", nil, nil, false
	}
	if req.Offset < 0 {
		writeError(w, http.StatusBadRequest, "offset must be >= 0, got %d", req.Offset)
		return "", nil, nil, false
	}
	if req.Parallelism < 0 {
		writeError(w, http.StatusBadRequest, "parallelism must be >= 0 (0 uses all CPUs, 1 is sequential), got %d", req.Parallelism)
		return "", nil, nil, false
	}
	if !s.backend.HasView(req.View) {
		writeError(w, httpkit.StatusFor(vxml.ErrUnknownView), "unknown view %q", req.View)
		return "", nil, nil, false
	}
	return req.View, &vxml.Options{
		TopK:        req.TopK,
		Offset:      req.Offset,
		Disjunctive: req.Disjunctive,
		Cache:       req.Cache,
		Parallelism: req.Parallelism,
	}, req.Keywords, true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	view, opts, keywords, ok := s.resolveSearch(w, r)
	if !ok {
		return
	}
	results, stats, err := s.backend.Search(r.Context(), view, keywords, opts)
	if err != nil && !(errors.Is(err, vxml.ErrPartialCluster) && stats != nil) {
		writeError(w, httpkit.StatusFor(err), "search: %v", err)
		return
	}
	if results == nil {
		results = []vxml.Result{}
	}
	resp := searchResponse{Results: results, Stats: stats}
	if err != nil {
		// Degraded mode: the surviving partitions' results travel with the
		// 502, and stats.nodes names the members that were lost — the
		// status is the truncation marker, never a silent one.
		resp.Error = err.Error()
		httpkit.WriteJSON(w, httpkit.StatusFor(err), resp)
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, resp)
}

// handleSearchStream is POST /v1/search/stream: the same request body as
// /v1/search, answered as NDJSON (application/x-ndjson) with one result
// object per line, written and flushed as the pipeline yields each ranked
// winner — the paper's deferred materialization extended over the wire. A
// failure before the first result is an ordinary JSON error response with
// the taxonomy status; a failure mid-stream (the headers are long gone) is
// delivered in-band as a final {"error": ...} line, so a client can
// distinguish a complete stream from a truncated one. A client disconnect
// cancels the request context and with it the pipeline.
func (s *Server) handleSearchStream(w http.ResponseWriter, r *http.Request) {
	view, opts, keywords, ok := s.resolveSearch(w, r)
	if !ok {
		return
	}
	st := s.streams.Open(w)
	for res, err := range s.backend.Results(r.Context(), view, keywords, opts) {
		if err != nil {
			if !st.Started() {
				writeError(w, httpkit.StatusFor(err), "search: %v", err)
				return
			}
			st.Line(httpkit.ErrorBody{Error: err.Error()}) //nolint:errcheck
			return
		}
		if st.Line(res) != nil {
			return // client went away; the ranged loop is not resumed
		}
	}
	// An empty result set is still a successful, empty stream.
	st.Start()
}

// explainRequest is the body of POST /v1/explain: the same view/keywords
// pair a search takes, with none of the execution options — the plan does
// not depend on them.
type explainRequest struct {
	View     string   `json:"view"`
	Keywords []string `json:"keywords"`
}

// explainResponse echoes the request identity alongside the rendered plan,
// so a captured explanation is self-describing when attached to a load
// harness failure or stored next to other evidence. PlanSource and
// PlanView report which catalog tier would answer a cached search right
// now ("direct", "cache_hit" or "rewritten", plus the serving view's
// catalog ID) — a point-in-time probe, not a promise: a mutation or
// eviction between explain and search can change the tier (never the
// results).
type explainResponse struct {
	View       string   `json:"view"`
	Keywords   []string `json:"keywords"`
	Plan       string   `json:"plan"`
	PlanSource string   `json:"plan_source,omitempty"`
	PlanView   string   `json:"plan_view,omitempty"`
}

// handleExplain is POST /v1/explain: render the query plan — the QPTs
// derived from the view definition and the exact index probes PDT
// generation would issue — for a view/keywords pair, without evaluating
// anything. This is the execution-trace hook load harnesses attach to
// flagged requests: any search or stream request body can be replayed here
// (extra fields like top_k are rejected, as everywhere) to capture why the
// engine planned it the way it did.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Keywords) == 0 {
		writeError(w, http.StatusBadRequest, "keywords are required")
		return
	}
	if !s.backend.HasView(req.View) {
		writeError(w, httpkit.StatusFor(vxml.ErrUnknownView), "unknown view %q", req.View)
		return
	}
	plan, err := s.backend.Explain(r.Context(), req.View, req.Keywords)
	if err != nil {
		writeError(w, httpkit.StatusFor(err), "explain: %v", err)
		return
	}
	// The probe can only fail if the view vanished between HasView and
	// here; the plan text is still worth returning, so a failed probe just
	// leaves the plan fields empty.
	source, viewID, _ := s.backend.PlanProbe(req.View, req.Keywords)
	httpkit.WriteJSON(w, http.StatusOK, explainResponse{
		View: req.View, Keywords: req.Keywords, Plan: plan,
		PlanSource: source, PlanView: viewID,
	})
}

// statsResponse is the body of GET /v1/stats. The catalog counters
// contribute the "cache" (exact result cache) and "catalog" (view registry
// and planner tiers) objects.
type statsResponse struct {
	Documents  []string `json:"documents"`
	TotalBytes int      `json:"total_bytes"`
	Views      int      `json:"views"`
	// Shards holds one entry per corpus shard (per cluster slot behind a
	// coordinator).
	Shards []store.ShardInfo `json:"shards"`
	catalog.Stats
	// Disk carries the disk backend's counters (on-disk/resident bytes, DAG
	// dedup, block/doc/index cache hit rates); absent on a heap-resident
	// corpus.
	Disk   *diskstore.Stats `json:"disk,omitempty"`
	Uptime string           `json:"uptime"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Documents:  s.backend.DocumentNames(),
		TotalBytes: s.backend.TotalBytes(),
		Views:      s.backend.ViewCount(),
		Shards:     s.backend.Shards(),
		Stats:      s.backend.CacheStats(),
	}
	if ds, ok := s.backend.DiskStats(); ok {
		resp.Disk = &ds
	}
	resp.Uptime = time.Since(s.started).Round(time.Millisecond).String()
	httpkit.WriteJSON(w, http.StatusOK, resp)
}
