// Package server exposes a vxml.Database as a JSON HTTP service. All
// handlers share one Database; its internal locking makes concurrent
// requests safe, so the server adds synchronization only for its own named
// view registry.
//
// Endpoints (all under /v1; there are no unversioned paths):
//
//	POST   /v1/documents        {"name": "books.xml", "xml": "<books>...</books>"}
//	PUT    /v1/documents/{name} {"xml": "<books>...</books>"}  (replace; 404 if absent)
//	DELETE /v1/documents/{name}                                (404 if absent)
//	POST /v1/views          {"name": "recent", "xquery": "for $b in ..."}
//	POST /v1/search         {"view": "recent", "keywords": ["xml","search"],
//	                         "top_k": 10, "offset": 0, "disjunctive": false,
//	                         "approach": "efficient", "cache": true}
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
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/cluster"
	"vxml/internal/diskstore"
	"vxml/internal/store"
)

// Server routes HTTP requests to a shared Backend — a single-process
// Database or a cluster Coordinator — and its named view registry.
type Server struct {
	backend  Backend
	started  time.Time
	readOnly atomic.Bool

	// streamGrace is the rolling per-line write deadline for the NDJSON
	// streaming endpoint (streamWriteGrace by default; tests shorten it).
	streamGrace time.Duration
	// logf is the server's log sink (log.Printf by default; tests capture
	// it). deadlineLogOnce rate-limits the write-deadline-unsupported
	// warning to once per server — the condition is a property of the
	// middleware stack, not of any one request.
	logf            func(format string, args ...any)
	deadlineLogOnce sync.Once
}

// New builds a server around a single-process database with an empty view
// registry.
func New(db *vxml.Database) *Server {
	return NewBackend(newDBBackend(db))
}

// NewCluster builds a server that serves the public /v1 API through a
// cluster coordinator: same routes, same wire shapes, byte-identical
// results — plus the degraded-mode surface (502 partial results with
// per-node status) only a distributed backend can produce.
func NewCluster(coord *cluster.Coordinator) *Server {
	return NewBackend(&coordBackend{coord: coord})
}

// NewBackend builds a server around an arbitrary Backend.
func NewBackend(b Backend) *Server {
	return &Server{
		backend:     b,
		started:     time.Now(),
		streamGrace: streamWriteGrace,
		logf:        log.Printf,
	}
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

// route is one entry of the server's routing table: method, path below
// the /v1 prefix, and handler.
type route struct {
	method  string
	path    string // versionless, e.g. "/documents/{name}"
	handler http.HandlerFunc
}

// routes is the single source of the routing table: Handler registers it
// and Routes exposes it, so the docs-drift test can hold docs/API.md to
// exactly this list.
func (s *Server) routes() []route {
	return []route{
		{method: "POST", path: "/documents", handler: s.handleAddDocument},
		{method: "PUT", path: "/documents/{name}", handler: s.handleReplaceDocument},
		{method: "DELETE", path: "/documents/{name}", handler: s.handleDeleteDocument},
		{method: "POST", path: "/views", handler: s.handleDefineView},
		{method: "POST", path: "/search", handler: s.handleSearch},
		{method: "POST", path: "/search/stream", handler: s.handleSearchStream},
		{method: "POST", path: "/explain", handler: s.handleExplain},
		{method: "GET", path: "/stats", handler: s.handleStats},
	}
}

// Routes returns every registered route in its canonical /v1 form, e.g.
// "POST /v1/search". The docs-drift test cross-checks this list against
// docs/API.md in both directions, so the API reference cannot rot silently.
func (s *Server) Routes() []string {
	var out []string
	for _, r := range s.routes() {
		out = append(out, r.method+" /v1"+r.path)
	}
	return out
}

// Handler returns the HTTP routing table: every route, under /v1 only.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.method+" /v1"+r.path, r.handler)
	}
	return mux
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// whose client went away before the response; net/http has no name for it.
const statusClientClosedRequest = 499

// statusFor maps the vxml error taxonomy to HTTP statuses:
// ErrInvalidOptions, ParseError, ErrDocumentTooDeep and
// cluster.ErrUnroutableView to 400,
// ErrUnknownView and ErrUnknownDocument to 404, context.DeadlineExceeded
// to 408, ErrDuplicateDocument and ErrDuplicateView to 409,
// context.Canceled to 499, ErrPartialCluster to 502 (the response body
// still carries the surviving partitions' results),
// cluster.ErrNodeUnavailable to 502 (a mutation could not reach the
// owning primary), cluster.ErrStaleGeneration to 503 (transient: the
// search kept racing mutations; retry), anything unclassified to 500.
func statusFor(err error) int {
	var pe *vxml.ParseError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, vxml.ErrUnknownView), errors.Is(err, vxml.ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, vxml.ErrDuplicateDocument), errors.Is(err, vxml.ErrDuplicateView):
		return http.StatusConflict
	case errors.Is(err, vxml.ErrPartialCluster), errors.Is(err, cluster.ErrNodeUnavailable):
		return http.StatusBadGateway
	case errors.Is(err, cluster.ErrStaleGeneration):
		return http.StatusServiceUnavailable
	case errors.Is(err, vxml.ErrInvalidOptions), errors.Is(err, cluster.ErrUnroutableView), errors.As(err, &pe),
		errors.Is(err, vxml.ErrDocumentTooDeep), errors.Is(err, vxml.ErrViewTooLarge):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds request bodies (documents included) so a single
// oversized POST cannot drive the process out of memory.
const maxBodyBytes = 64 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "decoding request body: %v", err)
		return false
	}
	return true
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
		// statusFor classifies duplicates (409) and cluster conditions
		// (502); an XML parse failure is unclassified but still the
		// client's bad body, so the fallback is 400, not 500.
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			status = http.StatusBadRequest
		}
		writeError(w, status, "adding document: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, addDocumentResponse{Name: req.Name, Documents: s.backend.DocumentNames()})
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
		// statusFor classifies unknown-name (404) and context failures; an
		// XML parse failure is unclassified but still the client's bad
		// body, so the fallback is 400, not 500.
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			status = http.StatusBadRequest
		}
		writeError(w, status, "replacing document: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, addDocumentResponse{Name: name, Documents: s.backend.DocumentNames()})
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
		writeError(w, statusFor(err), "deleting document: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, addDocumentResponse{Name: name, Documents: s.backend.DocumentNames()})
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
		// 404; any other compile rejection still means the client's query
		// was unusable, so the fallback is 400, not 500.
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			status = http.StatusBadRequest
		}
		writeError(w, status, "compiling view: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, defineViewResponse{Name: req.Name, Definition: definition})
}

type searchRequest struct {
	View        string   `json:"view"`
	Keywords    []string `json:"keywords"`
	TopK        int      `json:"top_k"`
	Disjunctive bool     `json:"disjunctive"`
	Approach    string   `json:"approach"`
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

// parseApproach maps the wire name to the pipeline selector; an unknown
// name wraps vxml.ErrInvalidOptions (→ 400).
func parseApproach(name string) (vxml.Approach, error) {
	switch name {
	case "", "efficient":
		return vxml.Efficient, nil
	case "baseline":
		return vxml.Baseline, nil
	case "gtp":
		return vxml.GTPTermJoin, nil
	}
	return 0, fmt.Errorf("%w: unknown approach %q (want efficient, baseline or gtp)", vxml.ErrInvalidOptions, name)
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
		writeError(w, statusFor(vxml.ErrUnknownView), "unknown view %q", req.View)
		return "", nil, nil, false
	}
	approach, err := parseApproach(req.Approach)
	if err != nil {
		writeError(w, statusFor(err), "%v", err)
		return "", nil, nil, false
	}
	return req.View, &vxml.Options{
		TopK:        req.TopK,
		Offset:      req.Offset,
		Disjunctive: req.Disjunctive,
		Approach:    approach,
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
		writeError(w, statusFor(err), "search: %v", err)
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
		writeJSON(w, statusFor(err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
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
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The server's global WriteTimeout is one absolute deadline for the
	// whole response — fine for one-shot JSON, fatal for a long stream.
	// Roll the write deadline forward per line instead: a healthy stream
	// of any length survives, a stalled client still trips it. A
	// middleware-wrapped ResponseWriter may not support per-response
	// deadlines (http.ErrNotSupported): detect that on the first failure,
	// log it once per server, and fall back explicitly to the global
	// WriteTimeout instead of silently retrying every line.
	rc := http.NewResponseController(w)
	deadlineSupported := true
	extendDeadline := func() {
		if !deadlineSupported {
			return
		}
		if err := rc.SetWriteDeadline(time.Now().Add(s.streamGrace)); err != nil {
			deadlineSupported = false
			s.deadlineLogOnce.Do(func() {
				s.logf("search/stream: ResponseWriter does not support per-response write deadlines (%v); long streams fall back to the server's global WriteTimeout", err)
			})
		}
	}
	started := false
	start := func() {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		started = true
	}
	for res, err := range s.backend.Results(r.Context(), view, keywords, opts) {
		if err != nil {
			if !started {
				writeError(w, statusFor(err), "search: %v", err)
				return
			}
			extendDeadline()
			enc.Encode(errorBody{Error: err.Error()}) //nolint:errcheck
			// Flush the in-band error line too: behind a buffering proxy an
			// unflushed error can sit until connection teardown,
			// indistinguishable from a truncated stream.
			flush()
			return
		}
		if !started {
			start()
		}
		extendDeadline()
		if err := enc.Encode(res); err != nil {
			return // client went away; the ranged loop is not resumed
		}
		flush()
	}
	// An empty result set is still a successful, empty stream.
	if !started {
		start()
	}
}

// streamWriteGrace is how long one NDJSON line may take to reach the
// client before the stream's rolling write deadline kills the connection.
const streamWriteGrace = 60 * time.Second

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
// now ("direct", "cache_hit", "rewritten" or "materialized", plus the
// serving view's catalog ID) — a point-in-time probe, not a promise: a
// mutation or eviction between explain and search can change the tier
// (never the results).
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
		writeError(w, statusFor(vxml.ErrUnknownView), "unknown view %q", req.View)
		return
	}
	plan, err := s.backend.Explain(r.Context(), req.View, req.Keywords)
	if err != nil {
		writeError(w, statusFor(err), "explain: %v", err)
		return
	}
	// The probe can only fail if the view vanished between HasView and
	// here; the plan text is still worth returning, so a failed probe just
	// leaves the plan fields empty.
	source, viewID, _ := s.backend.PlanProbe(req.View, req.Keywords)
	writeJSON(w, http.StatusOK, explainResponse{
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
	writeJSON(w, http.StatusOK, resp)
}
