// Package cluster implements distributed scatter-gather serving: a
// Coordinator fans ranked keyword searches out over N node processes (each
// holding one hash partition of the corpus plus a copy of every broadcast
// document) and merges their candidates into results byte-identical to a
// single-process vxml.Database holding the whole corpus.
//
// # Why the merge is sound
//
// A TF-IDF score depends on two corpus-global statistics: the view size
// |V(D)| and, per keyword, how many view results contain it. Nodes report
// those as integers (core.Engine.ClusterRank); the coordinator sums them
// and performs the single float64 division (scoring.IDFsFromCounts), then
// scores each candidate with scoring.Score and selects through the same
// total-ordered scoring.TopK heap the in-process pipeline uses. Integer
// sums are exact, so the IDFs — and therefore every score — are
// bit-identical to the single-node computation; ties break on a global
// (document ID, view position) key that orders candidates exactly as view
// positions order them in the oracle, because partitioned documents live on
// exactly one node and document IDs are coordinator-assigned. Winners are
// materialized in a second phase (MaterializeAt), preserving the paper's
// deferred-materialization property across the process boundary.
//
// # Generation protocol
//
// Every slot has a generation counter on the coordinator; every mutation
// RPC carries the generation the node must adopt (set_gen) and every read
// RPC the generation the reply must be computed at (gen). A node guards its
// whole pipeline with one RWMutex — mutations hold it exclusively across
// [apply + adopt generation], reads hold it shared across the whole search
// — so a reply stamped generation g was computed on exactly the
// generation-g corpus. Replies at any other generation are rejected with
// 409 and the coordinator retries the whole search a bounded number of
// times before failing with ErrStaleGeneration, exactly as catalog.PutAt
// discards inserts stamped with a stale generation.
//
// # Wire protocol (vxmlcluster/2)
//
// Nodes speak JSON/NDJSON over HTTP under /cluster/v1 (shape derived from
// the public /v1/search/stream route):
//
//	GET  /cluster/v1/health       → {schema, gen, documents, total_bytes, views}
//	POST /cluster/v1/views        {name, xquery}
//	POST /cluster/v1/documents    {op, name, xml, doc_id, set_gen} → {gen, byte_len}
//	POST /cluster/v1/rank         {view, keywords, …, gen} → {gen, view_size, contains, candidates, …}
//	POST /cluster/v1/materialize  rank request + positions → NDJSON {pos, xml, snippet}… {done, gen, fetches}
//	POST /cluster/v1/search       {view, keywords, top_k, offset, …, gen} → NDJSON {rank, score, …}… {done, gen, stats}
//	GET  /cluster/v1/snapshot     → NDJSON {schema, gen, views}, {file, data}…, {done}
//
// The stats object of rank and search replies is core.Stats, the same
// shape as the stats of a public /v1 search response.
//
// Errors are JSON {error, code} bodies; code "stale_generation" (409)
// additionally carries the node's current generation so the coordinator can
// tell a lagging replica (fail over to the next member) from its own
// outdated generation vector (retry the whole search).
package cluster

import "vxml/internal/core"

// Schema identifies the node RPC protocol version; every request and
// response carries it and nodes reject mismatches.
const Schema = "vxmlcluster/2"

// pathPrefix is the route prefix all node RPC endpoints live under.
const pathPrefix = "/cluster/v1"

// Node error codes (the "code" field of httpkit.ErrorBody). Every code but
// unknown_view and stale_generation follows from the reply's status.
const (
	codeUnknownView     = "unknown_view"     // 404: view name not pushed to this node
	codeUnknownDocument = "unknown_document" // 404: mutation names an absent document
	codeDuplicate       = "duplicate"        // 409: add under an existing name
	codeStaleGeneration = "stale_generation" // 409: request generation != node generation
	codeInvalid         = "invalid"          // 400: malformed request or unservable view
	codeCanceled        = "canceled"         // 499: request context canceled
	codeDeadline        = "deadline"         // 408: request context deadline exceeded
	codeInternal        = "internal"         // 500
)

// healthResponse answers GET /cluster/v1/health.
type healthResponse struct {
	Schema     string `json:"schema"`
	Gen        uint64 `json:"gen"`
	Documents  int    `json:"documents"`
	TotalBytes int    `json:"total_bytes"`
	Views      int    `json:"views"`
}

// viewRequest pushes one compiled view definition to a node.
type viewRequest struct {
	Schema string `json:"schema"`
	Name   string `json:"name"`
	XQuery string `json:"xquery"`
}

// documentRequest applies one corpus mutation on a node. DocID is the
// coordinator-assigned global document ID (adds and replaces); SetGen is
// the generation the node adopts after applying the operation.
type documentRequest struct {
	Schema string `json:"schema"`
	Op     string `json:"op"` // "add" | "replace" | "delete"
	Name   string `json:"name"`
	XML    string `json:"xml,omitempty"`
	DocID  int32  `json:"doc_id,omitempty"`
	SetGen uint64 `json:"set_gen"`
}

// documentResponse acknowledges a mutation. ByteLen reports the stored
// document's serialized size (adds and replaces) so the coordinator can
// account corpus bytes without reparsing XML.
type documentResponse struct {
	Gen     uint64 `json:"gen"`
	ByteLen int    `json:"byte_len,omitempty"`
}

// rankRequest runs the index-only scatter phase of a distributed search.
type rankRequest struct {
	Schema      string   `json:"schema"`
	View        string   `json:"view"`
	Keywords    []string `json:"keywords"`
	Disjunctive bool     `json:"disjunctive,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Gen         uint64   `json:"gen"`
}

// rankResponse is a node's scatter-phase reply: integer score statistics
// plus every keyword-matching candidate, nothing materialized, and the
// node-local cost breakdown — core.ClusterRanking as it is.
type rankResponse struct {
	Schema string `json:"schema"`
	Gen    uint64 `json:"gen"`
	core.ClusterRanking
}

// materializeRequest asks a node to expand the winning view positions of a
// rank it served earlier, at the same generation.
type materializeRequest struct {
	rankRequest
	Positions []int `json:"positions"`
}

// searchRequest runs a complete single-node search (the route for views the
// coordinator cannot scatter: every referenced document lives on the target
// node). TopK and Offset follow vxml's window semantics: rank the top TopK,
// return winners from Offset on with absolute ranks.
type searchRequest struct {
	Schema      string   `json:"schema"`
	View        string   `json:"view"`
	Keywords    []string `json:"keywords"`
	TopK        int      `json:"top_k,omitempty"`
	Offset      int      `json:"offset,omitempty"`
	Disjunctive bool     `json:"disjunctive,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	Gen         uint64   `json:"gen"`
}

// replyLine is one NDJSON line of a streamed read reply — /materialize and
// /search share the shape: a data line (a materialized position with Pos
// set, or a ranked result with Rank set), the final summary (Done set, with
// Fetches on materialize and Stats on search), or an in-band error (Error
// set). Every field is omitted when empty, so each stream carries only its
// own fields.
type replyLine struct {
	Pos     *int        `json:"pos,omitempty"`
	Rank    int         `json:"rank,omitempty"`
	Score   float64     `json:"score,omitempty"`
	TFs     []int       `json:"tfs,omitempty"`
	XML     string      `json:"xml,omitempty"`
	Snippet string      `json:"snippet,omitempty"`
	Done    bool        `json:"done,omitempty"`
	Gen     uint64      `json:"gen,omitempty"`
	Fetches int         `json:"fetches,omitempty"`
	Stats   *core.Stats `json:"stats,omitempty"`
	Error   string      `json:"error,omitempty"`
	Code    string      `json:"code,omitempty"`
}

// snapshotHeader is the first NDJSON line of a snapshot stream: the
// generation the files were saved at and every view definition the node
// holds, so a bootstrapping replica reproduces reads byte-identically.
type snapshotHeader struct {
	Schema string         `json:"schema"`
	Gen    uint64         `json:"gen"`
	Views  []viewSnapshot `json:"views"`
}

// viewSnapshot is one pushed view inside a snapshot header.
type viewSnapshot struct {
	Name   string `json:"name"`
	XQuery string `json:"xquery"`
}

// snapshotChunk is one NDJSON line after the snapshot header: a persisted
// file (File set, Data base64), the end marker (Done set — its absence
// means the stream was truncated), or an in-band error.
type snapshotChunk struct {
	File  string `json:"file,omitempty"`
	Data  string `json:"data,omitempty"`
	Done  bool   `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}
