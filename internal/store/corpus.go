package store

import (
	"hash/fnv"
	"sort"

	"vxml/internal/dewey"
	"vxml/internal/docname"
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
// backend in internal/diskstore satisfies it over a block file. The
// contract mirrors Store's documented behavior exactly — document IDs,
// shard assignment, the indices kept beside each document, tombstone
// semantics for pinned readers, and the fetch and probe counters — so the
// two backends are interchangeable under the byte-identity oracle suites.
// Each backend decides itself where a document's indices live: the heap
// store holds them resident, the disk store persists them and opens them
// on demand.
//
// Tree-returning methods (Doc, Docs, DocsMatching, Subtree) may hydrate
// lazily on a disk backend; the Info methods never do. Planning code
// should prefer Info/Infos/InfoByID for existence and routing checks.
type Corpus interface {
	// Shard topology. Shard assignment is a pure function of name and
	// shard count (ShardIndex), so both backends route identically.
	ShardCount() int
	ShardOf(name string) int
	ShardInfos() []ShardInfo
	Mutations() int

	// Document ID sequence.
	NextDocID() int32
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

	// Tree lookups (may hydrate on a disk backend).
	Doc(name string) *xmltree.Document
	Docs() []*xmltree.Document
	DocsMatching(pattern string) []*xmltree.Document

	// Base-data access (counted).
	Subtree(id dewey.ID) *xmltree.Node
	Value(id dewey.ID) (string, bool)
	SubtreeFetches() int
	BytesFetched() int
	ResetCounters()

	// Size accounting and persistence.
	TotalBytes() int
	Save(dir string) error
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

// Info returns the metadata of the document registered under name.
func (s *Store) Info(name string) (DocInfo, bool) {
	if d := s.Doc(name); d != nil {
		return infoOf(d), true
	}
	return DocInfo{}, false
}

// InfoByID returns the metadata of the document whose Dewey IDs start with
// docID. Like DocByID it resolves tombstoned documents for as long as a
// pinned reader may hold their IDs.
func (s *Store) InfoByID(docID int32) (DocInfo, bool) {
	if d := s.DocByID(docID); d != nil {
		return infoOf(d), true
	}
	return DocInfo{}, false
}

// Infos returns the metadata of all documents in document ID order.
func (s *Store) Infos() []DocInfo {
	var out []DocInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, e := range sh.byName {
			out = append(out, infoOf(e.doc))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out
}

// InfosMatching returns the metadata of documents whose names match the
// pattern (docname.Match) in document ID order.
func (s *Store) InfosMatching(pattern string) []DocInfo {
	if !docname.IsPattern(pattern) {
		if info, ok := s.Info(pattern); ok {
			return []DocInfo{info}
		}
		return nil
	}
	var out []DocInfo
	for _, sh := range s.shards {
		sh.mu.RLock()
		for name, e := range sh.byName {
			if docname.Match(pattern, name) {
				out = append(out, infoOf(e.doc))
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out
}

func infoOf(d *xmltree.Document) DocInfo {
	info := DocInfo{Name: d.Name, DocID: d.DocID}
	if d.Root != nil {
		info.Bytes = d.Root.ByteLen
	}
	return info
}

// compile-time check: the heap backend satisfies the storage seam.
var _ Corpus = (*Store)(nil)
