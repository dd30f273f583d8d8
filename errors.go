// Error taxonomy of the query API. Every failure a caller can act on
// programmatically is classifiable with errors.Is or errors.As against the
// symbols in this file, instead of matching message strings:
//
//	sentinel / type          condition                              HTTP
//	ErrUnknownView           named view not registered              404
//	ErrUnknownDocument       view references an absent document     404
//	ErrDuplicateDocument     Add under an existing document name    409
//	ErrDuplicateView         define under an existing view name     409
//	ErrInvalidOptions        unusable Options / request parameters  400
//	ParseError               malformed XQuery (position + message)  400
//	ErrDocumentTooDeep       document nests elements too deeply     400
//	ErrMalformedDocument     document is not well-formed XML        400
//	ErrViewTooLarge          view expands past the QPT node bound   400
//	ErrPartialCluster        distributed search lost node(s)        502
//	ErrNodeUnavailable       mutation could not reach a primary     502
//	ErrStaleGeneration       search kept racing mutations; retry    503
//	ErrUnroutableView        view's references span cluster slots   400
//	context.Canceled         caller canceled the context            499
//	context.DeadlineExceeded the context's deadline passed          408
//
// The HTTP column is the mapping internal/httpkit applies on the /v1
// routes and, with a typed code beside it, on a cluster node's
// /cluster/v1 routes. Context errors are always wrapped (never returned bare), so
// errors.Is(err, context.Canceled) classifies them while the message still
// names the phase that was interrupted.

package vxml

import (
	"errors"

	"vxml/internal/core"
	"vxml/internal/qpt"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
)

// ErrDuplicateDocument reports an Add under an already-registered document
// name (compare with errors.Is).
var ErrDuplicateDocument = store.ErrDuplicateName

// ErrUnknownDocument reports a view definition that references a document
// name absent from the corpus (compare with errors.Is). Collection
// patterns are exempt: they may match nothing today and many documents
// after the next Add.
var ErrUnknownDocument = core.ErrUnknownDocument

// ErrDuplicateView reports defining a view under an already-registered
// name (compare with errors.Is). Like ErrUnknownView it originates in
// components that register views by name — internal/server and
// internal/cluster — not in the Database API itself.
var ErrDuplicateView = errors.New("vxml: duplicate view")

// ErrUnknownView reports a lookup of a view name that was never defined.
// The Database API itself passes compiled *View values and cannot fail
// this way; components that resolve views by registered name (such as
// internal/server) wrap ErrUnknownView so transports can map it uniformly.
var ErrUnknownView = errors.New("vxml: unknown view")

// ErrInvalidOptions reports Options (or transport-level request
// parameters) that cannot be executed, such as an Approach value outside
// the defined pipelines or a search naming more than 64 keywords, and a
// view that reads one document through two references: by name and
// through a collection pattern (DefineView refuses it), or through two
// patterns (its searches refuse it). Merely out-of-range numeric fields
// (negative TopK, Offset or Parallelism) are normalized, not rejected.
var ErrInvalidOptions = core.ErrInvalidOptions

// ParseError is the diagnostic for malformed XQuery: the byte offset the
// parser stopped at and what it expected. DefineView and Query return it
// (wrapped; retrieve with errors.As) for syntactically invalid input.
type ParseError = xq.ParseError

// ErrDocumentTooDeep reports an added or replacing document whose elements
// nest deeper than the XML parser accepts (256 levels; compare with
// errors.Is). An XQuery view nested too deeply is a ParseError instead.
var ErrDocumentTooDeep = xmltree.ErrTooDeep

// ErrMalformedDocument reports an added or replacing document that is not
// well-formed XML — a syntax error, a second root element, an unbalanced
// end tag or no element at all (compare with errors.Is).
var ErrMalformedDocument = xmltree.ErrMalformed

// ErrViewTooLarge reports a view definition whose query pattern trees
// would need more than 1,024 nodes to build (compare with errors.Is).
// Function calls are expanded in place, so a short definition whose
// functions call each other repeatedly can ask for exponentially many.
var ErrViewTooLarge = qpt.ErrTooManyNodes

// ErrPartialCluster reports a distributed search that completed without one
// or more cluster nodes: the results returned alongside it cover only the
// surviving partitions (never a silently truncated full answer — the error
// is the marker). Stats.Nodes carries the per-member outcome. Single-process
// searches never return it.
var ErrPartialCluster = errors.New("vxml: partial cluster results")

// ErrStaleGeneration reports a distributed search that could not observe a
// stable generation vector within the bounded retry budget: some node kept
// answering at a generation other than the coordinator expected (a mutation
// storm, or a replica that was bootstrapped from an outdated snapshot).
// The condition is transient and the request is safe to retry.
var ErrStaleGeneration = errors.New("cluster: generation vector stale")

// ErrUnroutableView reports a search over a view that references
// partitioned documents on more than one cluster node without being
// scatterable: no node holds every document the evaluation needs, and
// cross-node joins are not implemented.
var ErrUnroutableView = errors.New("cluster: view cannot be routed over the partitioned corpus")

// ErrNodeUnavailable reports a mutation that could not reach the owning
// cluster slot's primary (connection failure or per-RPC timeout): the
// corpus is unchanged on that slot and the request is safe to retry once
// the node returns. The failure is the cluster's, not the client's.
var ErrNodeUnavailable = errors.New("cluster: node unavailable")
