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
// The store is sharded: documents are hash-assigned to one of N shards by
// name at ingest, and each shard guards its own name table with its own
// RWMutex, so an ingest into one shard never contends with reads against
// another. Dewey-ID lookups (DocByID, Subtree, Value) go through a
// lock-free append-only ID table and never touch a shard lock at all. The
// access counters are atomic so counted reads stay lock-free with respect
// to each other. Cross-shard snapshots (Docs, TotalBytes) lock one shard at
// a time; since every registration publishes exactly one document under one
// shard lock, such a snapshot still observes each individual document
// either entirely or not at all.
package store

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"vxml/internal/dewey"
	"vxml/internal/docname"
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

// shard is one corpus partition: a name table and its lock, plus cached
// per-shard size counters for ShardInfos.
type shard struct {
	mu     sync.RWMutex
	byName map[string]entry
	bytes  int // summed serialized size of the shard's documents
	// mutations counts replacements and deletions applied to this shard
	// (ingests are visible as Documents; mutations otherwise leave no
	// trace, so dashboards need the counter to see corpus churn).
	mutations int
	// retired holds the served counters of indices this shard has dropped
	// (replaced or deleted documents), so IndexProbes stays monotonic
	// across mutations, as the disk backend's does.
	retired struct{ probes, lookups int }
}

// entry is one registered document and its two indices.
type entry struct {
	doc *xmltree.Document
	pix *pathindex.Index
	iix *invindex.Index
}

// retireLocked folds the served counters of a dropped entry's indices into
// the shard's retired totals; the caller holds the shard's write lock.
func (sh *shard) retireLocked(old entry) {
	sh.retired.probes += old.pix.Probes()
	sh.retired.lookups += old.iix.Lookups()
}

// Store is a collection of named documents, partitioned into shards.
type Store struct {
	shards []*shard
	nextID atomic.Int32
	// byID maps document ID -> *xmltree.Document. Entries are written once
	// at publication and never deleted, so reads are lock-free (sync.Map is
	// optimal for this append-only, read-mostly shape).
	byID sync.Map

	// subtreeFetches counts Subtree and Value calls; bytesFetched sums the
	// serialized byte lengths returned. Benchmarks report these to show the
	// Efficient pipeline touches base data only for top-k winners.
	subtreeFetches atomic.Int64
	bytesFetched   atomic.Int64

	// pins counts in-flight lock-free readers (Pin/Unpin); grave holds the
	// document IDs of replaced or deleted documents whose byID entries must
	// outlive every reader that may still hold their Dewey IDs. See the
	// tombstone discussion on Delete.
	pins    atomic.Int64
	graveMu sync.Mutex
	grave   []int32
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
	if n <= 0 {
		n = DefaultShardCount()
	}
	s := &Store{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{byName: map[string]entry{}}
	}
	s.nextID.Store(1)
	return s
}

// ShardCount returns the number of corpus shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardOf returns the shard index the given document name hashes to.
func (s *Store) ShardOf(name string) int {
	return ShardIndex(name, len(s.shards))
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

// ShardInfos returns per-shard document counts, byte sizes and mutation
// counters.
func (s *Store) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		out[i] = ShardInfo{Shard: i, Documents: len(sh.byName), Bytes: sh.bytes, Mutations: sh.mutations}
		sh.mu.RUnlock()
	}
	return out
}

// Mutations returns the total number of replacements and deletions applied
// across all shards.
func (s *Store) Mutations() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.mutations
		sh.mu.RUnlock()
	}
	return total
}

// NextDocID returns the document ID the next AddParsed/AddXML call will use.
func (s *Store) NextDocID() int32 { return s.nextID.Load() }

// ReserveID atomically allocates the next document ID, so a caller can
// parse and index a document outside any lock before registering it with
// RegisterIndexed. A reservation wasted on a failed parse leaves a gap in
// the ID sequence, which is harmless.
func (s *Store) ReserveID() int32 { return s.nextID.Add(1) - 1 }

// EnsureNextID raises the ID sequence so the next reservation returns at
// least id. Callers registering documents under externally assigned IDs
// (a cluster node ingesting under coordinator-assigned IDs, Load restoring
// a manifest) use it to keep later local reservations from colliding with
// IDs already handed out elsewhere. It never lowers the sequence.
func (s *Store) EnsureNextID(id int32) {
	for {
		cur := s.nextID.Load()
		if cur >= id || s.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
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
	sh := s.shards[s.ShardOf(doc.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.byName[doc.Name]; dup {
		return fmt.Errorf("store: %w: %q", ErrDuplicateName, doc.Name)
	}
	sh.byName[doc.Name] = entry{doc, pix, iix}
	if doc.Root != nil {
		sh.bytes += doc.Root.ByteLen
	}
	s.byID.Store(doc.DocID, doc)
	return nil
}

// AddXML parses the XML text and registers it under name. Documents receive
// document IDs in reservation order. Adding a name that already exists
// returns an error wrapping ErrDuplicateName. The parse runs outside the
// shard lock — only the registration excludes readers.
func (s *Store) AddXML(name, xmlText string) (*xmltree.Document, error) {
	if s.Doc(name) != nil {
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
// IndexProbes). The old document's byID entry is tombstoned, not dropped: a
// reader that planned its search before the swap may still materialize the
// old subtree (see Pin), while any search planned afterwards resolves the
// name to the replacement only. It returns an error wrapping ErrUnknownName
// if the name is not registered.
func (s *Store) ReplaceIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error {
	sh := s.shards[s.ShardOf(doc.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.byName[doc.Name]
	if !ok {
		return fmt.Errorf("store: %w: %q", ErrUnknownName, doc.Name)
	}
	sh.byName[doc.Name] = entry{doc, pix, iix}
	sh.retireLocked(old)
	if old.doc.Root != nil {
		sh.bytes -= old.doc.Root.ByteLen
	}
	if doc.Root != nil {
		sh.bytes += doc.Root.ByteLen
	}
	sh.mutations++
	s.byID.Store(doc.DocID, doc)
	s.retire(old.doc.DocID)
	return nil
}

// ReplaceXML parses the XML text and swaps it in under name, assigning a
// fresh document ID (the replacement is a new document in global document
// order; only the name is stable). Replacing a name that does not exist
// returns an error wrapping ErrUnknownName. Like AddXML, the parse runs
// outside the shard lock.
func (s *Store) ReplaceXML(name, xmlText string) (*xmltree.Document, error) {
	if s.Doc(name) == nil {
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
// (their served counters kept for IndexProbes). The document vanishes
// from every name-driven lookup (Doc, Docs, DocsMatching) immediately, so a
// search planned after Delete returns cannot see it; its Dewey entries are
// tombstoned rather than dropped, so a search planned before — which may
// already hold the document's IDs and materialize winners lock-free after
// releasing its shard locks — keeps resolving the old subtree until the
// last such reader unpins. Deleting an unknown name returns an error
// wrapping ErrUnknownName.
func (s *Store) Delete(name string) error {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.byName[name]
	if !ok {
		return fmt.Errorf("store: %w: %q", ErrUnknownName, name)
	}
	delete(sh.byName, name)
	sh.retireLocked(old)
	if old.doc.Root != nil {
		sh.bytes -= old.doc.Root.ByteLen
	}
	sh.mutations++
	s.retire(old.doc.DocID)
	return nil
}

// Pin marks the start of a lock-free read epoch: until the matching Unpin,
// replaced and deleted documents stay resolvable by Dewey ID (Subtree,
// Value, DocByID), so a search that planned under shard locks and then
// released them before materializing its winners never observes a nil
// subtree. Searches that begin after a mutation never probe the retired IDs
// at all — the mutation removed the name under the same shard lock their
// planning takes — so tombstones are invisible to them regardless.
func (s *Store) Pin() { s.pins.Add(1) }

// Unpin ends a Pin epoch. When the last pinned reader leaves, tombstoned
// byID entries are swept and their memory becomes reclaimable.
func (s *Store) Unpin() {
	if s.pins.Add(-1) == 0 {
		s.sweep()
	}
}

// retire tombstones the byID entry of a replaced or deleted document. With
// no pinned readers it is dropped immediately; otherwise it joins the
// graveyard swept when the reader count next reaches zero. Under a
// continuously overlapping read load tombstones can accumulate until the
// first quiescent instant — they cost one map entry plus the retained
// document each, never correctness.
func (s *Store) retire(docID int32) {
	s.graveMu.Lock()
	s.grave = append(s.grave, docID)
	s.graveMu.Unlock()
	if s.pins.Load() == 0 {
		s.sweep()
	}
}

// sweep drops every tombstoned byID entry. A reader pinning concurrently
// with a sweep cannot be harmed: it planned (or will plan) under shard
// locks that already exclude the retired documents from every name lookup,
// so it holds none of their Dewey IDs.
func (s *Store) sweep() {
	s.graveMu.Lock()
	ids := s.grave
	s.grave = nil
	s.graveMu.Unlock()
	for _, id := range ids {
		s.byID.Delete(id)
	}
}

// Tombstones returns the number of retired documents awaiting sweep
// (diagnostics and tests).
func (s *Store) Tombstones() int {
	s.graveMu.Lock()
	defer s.graveMu.Unlock()
	return len(s.grave)
}

// Doc returns the document registered under name, or nil.
func (s *Store) Doc(name string) *xmltree.Document {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.byName[name].doc
}

// StoredIndices returns the path and inverted index registered with the
// named document, or an error wrapping ErrUnknownName.
func (s *Store) StoredIndices(name string) (*pathindex.Index, *invindex.Index, error) {
	sh := s.shards[s.ShardOf(name)]
	sh.mu.RLock()
	e, ok := sh.byName[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("store: %w: %q", ErrUnknownName, name)
	}
	return e.pix, e.iix, nil
}

// IndexProbes sums the served index-probe counters across the corpus:
// path-index full-path probes and inverted-list keyword lookups, including
// those served by indices since dropped, so the totals never decrease.
func (s *Store) IndexProbes() (pathProbes, keywordLookups int) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		pathProbes += sh.retired.probes
		keywordLookups += sh.retired.lookups
		for _, e := range sh.byName {
			pathProbes += e.pix.Probes()
			keywordLookups += e.iix.Lookups()
		}
		sh.mu.RUnlock()
	}
	return pathProbes, keywordLookups
}

// DocByID returns the document whose Dewey IDs start with docID, or nil.
// The lookup is lock-free: it never contends with ingest on any shard.
func (s *Store) DocByID(docID int32) *xmltree.Document {
	if d, ok := s.byID.Load(docID); ok {
		return d.(*xmltree.Document)
	}
	return nil
}

// Docs returns all documents in insertion (document ID) order.
func (s *Store) Docs() []*xmltree.Document {
	var docs []*xmltree.Document
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, e := range sh.byName {
			docs = append(docs, e.doc)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	return docs
}

// DocsMatching returns the documents whose names match the pattern (see
// docname.Match) in insertion (document ID) order. An exact name — no '*'
// — matches at most its own document.
func (s *Store) DocsMatching(pattern string) []*xmltree.Document {
	if !docname.IsPattern(pattern) {
		if d := s.Doc(pattern); d != nil {
			return []*xmltree.Document{d}
		}
		return nil
	}
	var docs []*xmltree.Document
	for _, sh := range s.shards {
		sh.mu.RLock()
		for name, e := range sh.byName {
			if docname.Match(pattern, name) {
				docs = append(docs, e.doc)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].DocID < docs[j].DocID })
	return docs
}

// Subtree fetches the element with the given Dewey ID from base storage.
// This is the materialization primitive used for top-k results and for the
// GTP baseline's join-value access; it is counted.
func (s *Store) Subtree(id dewey.ID) *xmltree.Node {
	if len(id) == 0 {
		return nil
	}
	doc := s.DocByID(id[0])
	if doc == nil {
		return nil
	}
	n := doc.FindByID(id)
	if n != nil {
		s.subtreeFetches.Add(1)
		s.bytesFetched.Add(int64(n.ByteLen))
	}
	return n
}

// Value fetches the atomic value of the element with the given ID from base
// storage (used by the GTP baseline, which unlike the Efficient pipeline
// must access base data for join values).
func (s *Store) Value(id dewey.ID) (string, bool) {
	n := s.Subtree(id)
	if n == nil {
		return "", false
	}
	return n.Value, true
}

// SubtreeFetches returns the number of counted Subtree/Value calls.
func (s *Store) SubtreeFetches() int { return int(s.subtreeFetches.Load()) }

// BytesFetched returns the summed serialized byte length of fetched
// subtrees.
func (s *Store) BytesFetched() int { return int(s.bytesFetched.Load()) }

// ResetCounters zeroes the access counters (between benchmark phases).
func (s *Store) ResetCounters() {
	s.subtreeFetches.Store(0)
	s.bytesFetched.Store(0)
}

// TotalBytes returns the summed serialized size of all documents.
func (s *Store) TotalBytes() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.bytes
		sh.mu.RUnlock()
	}
	return total
}
