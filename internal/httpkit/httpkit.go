// Package httpkit is the serving plumbing both HTTP surfaces share: the
// public /v1 API (internal/server) and a cluster node's /cluster/v1 RPCs
// (internal/cluster). It holds the routing table, the strict size-capped
// JSON decode, the JSON reply and its error body, the error → status
// taxonomy, and the NDJSON stream writer that flushes every line and rolls
// a per-line write deadline. Anything every route needs — request IDs,
// per-route metrics, admission — belongs here, so both surfaces get it
// once.
package httpkit

import (
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"sync"
	"time"

	"vxml"
	"vxml/internal/core"
)

// Route is one entry of a routing table: method, path below the surface's
// prefix, and handler.
type Route struct {
	Method  string
	Path    string // below the prefix, e.g. "/documents/{name}"
	Handler http.HandlerFunc
}

// Table is a surface's single routing table: Handler registers it and
// Routes lists it, so the docs-drift tests hold docs/API.md to exactly what
// is served.
type Table []Route

// Handler registers every route under prefix, and nothing else.
func (t Table) Handler(prefix string) http.Handler {
	mux := http.NewServeMux()
	for _, r := range t {
		mux.HandleFunc(r.Method+" "+prefix+r.Path, r.Handler)
	}
	return mux
}

// Routes lists every route as "METHOD prefix/path", in table order.
func (t Table) Routes(prefix string) []string {
	out := make([]string, len(t))
	for i, r := range t {
		out[i] = r.Method + " " + prefix + r.Path
	}
	return out
}

// MaxBodyBytes bounds request bodies (documents included) so a single
// oversized POST cannot drive the process out of memory.
const MaxBodyBytes = 64 << 20

// Decode reads r's JSON body into dst strictly: unknown fields are
// rejected and the body is capped at MaxBodyBytes. A failure returns the
// decoder's error with the status it answers — 413 for a body over the
// cap, 400 otherwise — and the caller writes the reply, since the two
// surfaces word it differently.
func Decode(w http.ResponseWriter, r *http.Request, dst any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

// WriteJSON writes v as the whole JSON reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// ErrorBody is the JSON shape of every non-2xx reply on both surfaces, and
// of in-band NDJSON error lines. /v1 sets only Error; a node adds its typed
// Code, and Gen (its current generation) on stale_generation replies.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	Gen   uint64 `json:"gen,omitempty"`
}

// StatusClientClosedRequest is the de-facto (nginx) status for a request
// whose client went away before the response; net/http has no name for it.
const StatusClientClosedRequest = 499

// StatusFor maps an error to its HTTP status by the taxonomy table in root
// errors.go, plus core.ErrUnpartitionableView (a node asked to scatter a
// view its partition rule refuses) as 400. Anything unclassified is 500.
func StatusFor(err error) int {
	var pe *vxml.ParseError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, vxml.ErrUnknownView), errors.Is(err, vxml.ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, vxml.ErrDuplicateDocument), errors.Is(err, vxml.ErrDuplicateView):
		return http.StatusConflict
	case errors.Is(err, vxml.ErrPartialCluster), errors.Is(err, vxml.ErrNodeUnavailable):
		return http.StatusBadGateway
	case errors.Is(err, vxml.ErrStaleGeneration):
		return http.StatusServiceUnavailable
	case errors.Is(err, vxml.ErrInvalidOptions), errors.Is(err, vxml.ErrUnroutableView), errors.As(err, &pe),
		errors.Is(err, vxml.ErrDocumentTooDeep), errors.Is(err, vxml.ErrMalformedDocument), errors.Is(err, vxml.ErrViewTooLarge),
		errors.Is(err, core.ErrUnpartitionableView):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// StreamWriteGrace is how long one NDJSON line may take to reach the
// client before the stream's rolling write deadline kills the connection.
const StreamWriteGrace = 60 * time.Second

// Streams is what every NDJSON stream of one server shares: the rolling
// per-line write grace, and the log sink that reports — once per server,
// since it is a property of the middleware stack and not of any one
// request — a ResponseWriter without per-response write deadlines. The
// zero value uses StreamWriteGrace and log.Printf. A Streams must not be
// copied after first use.
type Streams struct {
	Grace time.Duration
	Logf  func(format string, args ...any)
	once  sync.Once
}

// Stream is one NDJSON reply in flight.
type Stream struct {
	cfg        *Streams
	w          http.ResponseWriter
	rc         *http.ResponseController
	enc        *json.Encoder
	started    bool
	noDeadline bool
}

// Open starts an NDJSON reply on w. Nothing is written until Start or the
// first Line, so a failure before then can still be an ordinary JSON error
// reply.
func (s *Streams) Open(w http.ResponseWriter) *Stream {
	return &Stream{cfg: s, w: w, rc: http.NewResponseController(w), enc: json.NewEncoder(w)}
}

// Started reports whether the 200 header has gone out, after which a
// failure can only travel in-band.
func (st *Stream) Started() bool { return st.started }

// Start sends the 200 header with the NDJSON content type, once. An empty
// stream is still a successful one, so its handler calls Start directly.
func (st *Stream) Start() {
	if st.started {
		return
	}
	st.w.Header().Set("Content-Type", "application/x-ndjson")
	st.w.WriteHeader(http.StatusOK)
	st.started = true
}

// Line writes v as one NDJSON line and flushes it, so a buffering
// intermediary cannot hold it back — an in-band error line least of all.
// It starts the stream if needed. An error means the client is gone.
//
// The server's WriteTimeout is one absolute deadline for the whole
// response: fine for one-shot JSON, fatal for a long stream. Line rolls
// the write deadline forward by the grace instead, so a healthy stream of
// any length survives and a stalled consumer is still cut. A ResponseWriter
// that cannot take per-response deadlines (a middleware wrapper) is
// detected on the first failure, logged once per Streams, and left to the
// global WriteTimeout instead of being retried every line.
func (st *Stream) Line(v any) error {
	st.Start()
	if !st.noDeadline {
		grace := st.cfg.Grace
		if grace <= 0 {
			grace = StreamWriteGrace
		}
		if err := st.rc.SetWriteDeadline(time.Now().Add(grace)); err != nil {
			st.noDeadline = true
			st.cfg.once.Do(func() {
				logf := st.cfg.Logf
				if logf == nil {
					logf = log.Printf
				}
				logf("NDJSON stream: ResponseWriter does not support per-response write deadlines (%v); long streams fall back to the server's global WriteTimeout", err)
			})
		}
	}
	if err := st.enc.Encode(v); err != nil {
		return err
	}
	st.rc.Flush() //nolint:errcheck // a writer that cannot flush still delivers the line at the end
	return nil
}
