package store

import (
	"hash/fnv"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
)

// DocInfo is the metadata the planning layers need about a stored document
// without hydrating its tree: existence checks, shard routing, corpus
// enumeration and size accounting. On the heap backend it is a cheap
// projection of the in-memory document; on the disk backend it is read from
// the manifest alone, so planning a search never pages base data in.
type DocInfo struct {
	Name  string
	DocID int32
	// Bytes is the serialized byte length of the document (Root.ByteLen).
	Bytes int
}

// Corpus is the storage seam the engine and every comparator pipeline run
// against. *Store (the heap backend) satisfies it directly; the disk
// backend in internal/diskstore satisfies it over a block file. Both embed
// one Table, which supplies the shard topology, the ID sequence, the
// tombstones, the metadata lookups and the fetch counters, so those behave
// identically by construction; each backend supplies only where trees and
// indices live — the heap store holds them resident, the disk store
// persists them and opens them on demand. The byte-identity oracle suites
// hold the two interchangeable.
//
// Tree-returning methods (Doc, Subtree) may hydrate lazily on a disk
// backend; the Info methods never do. Planning code should prefer
// Info/Infos/InfoByID for existence and routing checks.
type Corpus interface {
	// Shard topology. Shard assignment is a pure function of name and
	// shard count (ShardIndex), so both backends route identically.
	ShardCount() int
	ShardOf(name string) int
	ShardInfos() []ShardInfo

	// Document ID sequence.
	ReserveID() int32
	EnsureNextID(id int32)

	// Lifecycle. RegisterIndexed and ReplaceIndexed take a document with a
	// reserved ID together with its path and inverted indices, and publish
	// all three in one write; Delete drops a document and its indices, and
	// tombstones the document for pinned readers.
	RegisterIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error
	ReplaceIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error
	Delete(name string) error

	// Index lookups. StoredIndices returns a registered document's indices
	// (an error wrapping ErrUnknownName for any other name) and is safe for
	// concurrent use with mutations; IndexProbes sums the probes and
	// lookups every index of the corpus has served, dropped ones included.
	StoredIndices(name string) (*pathindex.Index, *invindex.Index, error)
	IndexProbes() (pathProbes, keywordLookups int)

	// Pin/Unpin bracket lock-free read epochs: replaced and deleted
	// documents stay resolvable by Dewey ID until the last reader unpins.
	// Tombstones reports how many retired documents are being retained
	// for such readers (diagnostics and tests).
	Pin()
	Unpin()
	Tombstones() int

	// Metadata lookups (never hydrate).
	Info(name string) (DocInfo, bool)
	InfoByID(docID int32) (DocInfo, bool)
	Infos() []DocInfo
	InfosMatching(pattern string) []DocInfo

	// Tree lookup (may hydrate on a disk backend).
	Doc(name string) *xmltree.Document

	// Base-data access (counted).
	Subtree(id dewey.ID) *xmltree.Node
	SubtreeFetches() int
	BytesFetched() int

	// Size accounting.
	TotalBytes() int
}

// DocsMatching returns the trees of the documents whose names match the
// pattern (docname.Match; "*" matches every name) in document ID order,
// hydrating each on a disk backend. A document deleted between the
// enumeration and its fetch is skipped. It is for persistence, snapshots
// and the comparators that evaluate views over whole base documents — not
// the Efficient pipeline's serving path, which plans from metadata.
func DocsMatching(c Corpus, pattern string) []*xmltree.Document {
	infos := c.InfosMatching(pattern)
	docs := make([]*xmltree.Document, 0, len(infos))
	for _, info := range infos {
		if d := c.Doc(info.Name); d != nil {
			docs = append(docs, d)
		}
	}
	return docs
}

// ShardIndex returns the shard a document name hashes to among n shards.
// This is the one shard-assignment function: both backends and the cluster
// router call it (directly or through ShardOf), so a corpus saved from one
// backend and opened by the other keeps every document on the same shard.
func ShardIndex(name string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(name)) //nolint:errcheck
	return int(h.Sum32() % uint32(n))
}

// compile-time check: the heap backend satisfies the storage seam.
var _ Corpus = (*Store)(nil)
