// Package store implements the document storage subsystem (paper Figure 3,
// bottom box). It holds the base XML documents, assigns document IDs, and
// serves subtree fetches by Dewey ID — the only operation the Efficient
// pipeline performs against base data, and only for the final top-k results
// (paper §4.2.2.2). Access counters make that claim measurable.
//
// Beside each document the store keeps its path and inverted-list indices
// (paper Figure 3: the indices sit next to the stored documents, and PDT
// generation reads only them). One shard-map entry holds all three, so one
// write under the shard lock publishes, replaces or drops a document and
// both its indices together.
//
// The name table, the ID sequence, the reader-pinned tombstones and the
// metadata lookups are the Table both backends embed (table.go); the heap
// store adds the in-memory trees and indices each entry holds.
package store

import (
	"errors"
	"fmt"
	"runtime"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
)

// ErrDuplicateName is returned (or wrapped) when a document is added under a
// name that is already registered.
var ErrDuplicateName = errors.New("duplicate document name")

// ErrUnknownName is returned (or wrapped) when a replace or delete names a
// document that is not registered.
var ErrUnknownName = errors.New("unknown document name")

// entry is one registered document and its two indices.
type entry struct {
	doc *xmltree.Document
	pix *pathindex.Index
	iix *invindex.Index
}

// Info implements Entry.
func (e *entry) Info() DocInfo {
	info := DocInfo{Name: e.doc.Name, DocID: e.doc.DocID}
	if e.doc.Root != nil {
		info.Bytes = e.doc.Root.ByteLen
	}
	return info
}

// Store is a collection of named documents, partitioned into shards.
type Store struct {
	*Table[*entry]
	// retired holds, per shard, the served counters of indices the shard
	// has dropped (replaced or deleted documents), so IndexProbes stays
	// monotonic across mutations, as the disk backend's does. retired[i] is
	// written under shard i's write lock (Replace and Remove hand the
	// dropped entry to foldRetired under it) and read under its read lock.
	retired []struct{ probes, lookups int }
}

// DefaultShardCount is the shard count New uses: one shard per available
// CPU, clamped to [1, 16]. Shard assignment is a pure function of document
// name and shard count, so the count never affects query results — only
// contention.
func DefaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// New returns an empty store with DefaultShardCount shards.
func New() *Store { return NewSharded(0) }

// NewSharded returns an empty store with n shards (n <= 0 selects
// DefaultShardCount).
func NewSharded(n int) *Store {
	t := NewTable[*entry](n)
	return &Store{Table: t, retired: make([]struct{ probes, lookups int }, t.ShardCount())}
}

// ShardInfo is a point-in-time snapshot of one shard's corpus counters;
// GET /v1/stats serves it as one element of "shards".
type ShardInfo struct {
	Shard     int `json:"shard"`
	Documents int `json:"documents"`
	Bytes     int `json:"bytes"`
	// Mutations counts the replacements and deletions applied to the shard
	// — corpus churn that document count and bytes alone cannot show.
	Mutations int `json:"mutations"`
}

// RegisterParsed registers a document whose DocID was allocated with
// ReserveID, building its indices first (callers with indices in hand use
// RegisterIndexed).
func (s *Store) RegisterParsed(doc *xmltree.Document) error {
	return s.RegisterIndexed(doc, pathindex.Build(doc), invindex.Build(doc))
}

// RegisterIndexed makes doc and its indices visible under its name and
// DocID in one write under the home shard's lock. doc must own a DocID
// allocated with ReserveID. It returns an error wrapping ErrDuplicateName,
// and publishes nothing, if the name is already taken.
func (s *Store) RegisterIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error {
	return s.Add(&entry{doc, pix, iix})
}

// AddXML parses the XML text and registers it under name. Documents receive
// document IDs in reservation order. Adding a name that already exists
// returns an error wrapping ErrDuplicateName. The parse runs outside the
// shard lock — only the registration excludes readers.
func (s *Store) AddXML(name, xmlText string) (*xmltree.Document, error) {
	if _, dup := s.Entry(name); dup {
		return nil, fmt.Errorf("store: %w: %q", ErrDuplicateName, name)
	}
	doc, err := xmltree.ParseString(xmlText, name, s.ReserveID())
	if err != nil {
		return nil, err
	}
	if err := s.RegisterParsed(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// AddParsed registers a document built programmatically. The document's
// DocID is overwritten with the store's next ID and the tree re-finalized.
// It panics on a duplicate name (programmatic corpora control their names).
func (s *Store) AddParsed(doc *xmltree.Document) *xmltree.Document {
	doc.DocID = s.ReserveID()
	doc.Finalize()
	if err := s.RegisterParsed(doc); err != nil {
		panic(fmt.Sprintf("store: %v", err))
	}
	return doc
}

// ReplaceParsed swaps the document registered under doc.Name, building the
// replacement's indices first (see ReplaceIndexed).
func (s *Store) ReplaceParsed(doc *xmltree.Document) error {
	return s.ReplaceIndexed(doc, pathindex.Build(doc), invindex.Build(doc))
}

// ReplaceIndexed atomically swaps the document registered under doc.Name,
// and its indices, for doc and pix/iix; doc must carry a freshly reserved
// DocID. The old indices are dropped (their served counters kept for
// IndexProbes) and the old document tombstoned for pinned readers (see
// Table.Replace). It returns an error wrapping ErrUnknownName if the name
// is not registered.
func (s *Store) ReplaceIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error {
	return s.Replace(&entry{doc, pix, iix}, s.foldRetired)
}

// ReplaceXML parses the XML text and swaps it in under name, assigning a
// fresh document ID (the replacement is a new document in global document
// order; only the name is stable). Replacing a name that does not exist
// returns an error wrapping ErrUnknownName. Like AddXML, the parse runs
// outside the shard lock.
func (s *Store) ReplaceXML(name, xmlText string) (*xmltree.Document, error) {
	if _, ok := s.Entry(name); !ok {
		return nil, fmt.Errorf("store: %w: %q", ErrUnknownName, name)
	}
	doc, err := xmltree.ParseString(xmlText, name, s.ReserveID())
	if err != nil {
		return nil, err
	}
	if err := s.ReplaceParsed(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Delete unregisters the document stored under name and drops its indices
// (their served counters kept for IndexProbes); the document is tombstoned
// for pinned readers (see Table.Remove). Deleting an unknown name returns
// an error wrapping ErrUnknownName.
func (s *Store) Delete(name string) error {
	return s.Remove(name, s.foldRetired)
}

// foldRetired folds the served counters of a dropped entry's indices into
// its shard's retired totals; it runs under the shard's write lock.
func (s *Store) foldRetired(old *entry) {
	r := &s.retired[s.ShardOf(old.doc.Name)]
	r.probes += old.pix.Probes()
	r.lookups += old.iix.Lookups()
}

// Doc returns the document registered under name, or nil.
func (s *Store) Doc(name string) *xmltree.Document {
	if e, ok := s.Entry(name); ok {
		return e.doc
	}
	return nil
}

// StoredIndices returns the path and inverted index registered with the
// named document, or an error wrapping ErrUnknownName.
func (s *Store) StoredIndices(name string) (*pathindex.Index, *invindex.Index, error) {
	e, ok := s.Entry(name)
	if !ok {
		return nil, nil, fmt.Errorf("store: %w: %q", ErrUnknownName, name)
	}
	return e.pix, e.iix, nil
}

// IndexProbes sums the served index-probe counters across the corpus:
// path-index full-path probes and inverted-list keyword lookups, including
// those served by indices since dropped, so the totals never decrease.
func (s *Store) IndexProbes() (pathProbes, keywordLookups int) {
	s.Scan(func(shard int, live map[string]*entry) {
		pathProbes += s.retired[shard].probes
		keywordLookups += s.retired[shard].lookups
		for _, e := range live {
			pathProbes += e.pix.Probes()
			keywordLookups += e.iix.Lookups()
		}
	})
	return pathProbes, keywordLookups
}

// Subtree fetches the element with the given Dewey ID from base storage.
// This is the materialization primitive used for top-k results and for the
// GTP baseline's join-value access; it is counted. The lookup is
// lock-free, and resolves tombstoned documents while a reader is pinned.
func (s *Store) Subtree(id dewey.ID) *xmltree.Node {
	if len(id) == 0 {
		return nil
	}
	e, ok := s.EntryByID(id[0])
	if !ok {
		return nil
	}
	return s.CountFetch(e.doc.FindByID(id))
}
