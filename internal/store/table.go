package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"vxml/internal/docname"
	"vxml/internal/xmltree"
)

// Entry is what a backend keeps per document in a Table: the heap store
// the tree and its two indices, the disk store where they sit in its data
// log. Info is the metadata the table reads from it for routing,
// enumeration and size accounting.
type Entry interface {
	Info() DocInfo
}

// Table is the half of a Corpus that does not depend on where trees and
// indices live, shared by both backends: the sharded name table with its
// per-shard counters, the lock-free document-ID table, the ID sequence,
// the reader-pinned tombstones, the metadata lookups and the base-data
// fetch counters. A backend embeds it and adds only what differs: how a
// tree, a subtree or an index is read back from an entry.
//
// Documents are hash-assigned to one of N shards by name (ShardIndex), and
// each shard guards its own name table with its own RWMutex, so a
// mutation in one shard never contends with reads against another. Lookups
// by document ID go through an append-only map and never touch a shard
// lock. Cross-shard snapshots (Infos, ShardInfos, TotalBytes) lock one
// shard at a time; since every mutation publishes exactly one entry under
// one shard lock, such a snapshot still observes each document either
// entirely or not at all.
type Table[E Entry] struct {
	shards []*tableShard[E]
	// byID maps document ID -> E. Entries are written once at publication
	// and deleted only by the tombstone sweep, so reads are lock-free
	// (sync.Map suits this append-only, read-mostly shape).
	byID   sync.Map
	nextID atomic.Int32

	// pins counts in-flight lock-free readers (Pin/Unpin); grave holds the
	// document IDs of replaced or deleted documents whose byID entries must
	// outlive every reader that may still hold their Dewey IDs.
	pins    atomic.Int64
	graveMu sync.Mutex
	grave   []int32

	// subtreeFetches counts counted Subtree calls; bytesFetched sums the
	// serialized byte lengths returned. Benchmarks report these to show the
	// Efficient pipeline touches base data only for top-k winners.
	subtreeFetches atomic.Int64
	bytesFetched   atomic.Int64
}

// tableShard is one corpus partition: a name table and its lock, plus the
// per-shard size counters ShardInfos reports.
type tableShard[E Entry] struct {
	mu     sync.RWMutex
	byName map[string]E
	bytes  int // summed serialized size of the shard's documents
	// mutations counts replacements and deletions applied to this shard
	// (ingests are visible as Documents; mutations otherwise leave no
	// trace, so dashboards need the counter to see corpus churn).
	mutations int
}

// NewTable returns an empty table with n shards (n <= 0 selects
// DefaultShardCount) whose ID sequence starts at 1.
func NewTable[E Entry](n int) *Table[E] {
	if n <= 0 {
		n = DefaultShardCount()
	}
	t := &Table[E]{shards: make([]*tableShard[E], n)}
	for i := range t.shards {
		t.shards[i] = &tableShard[E]{byName: map[string]E{}}
	}
	t.nextID.Store(1)
	return t
}

// ShardCount returns the number of corpus shards.
func (t *Table[E]) ShardCount() int { return len(t.shards) }

// ShardOf returns the shard index the given document name hashes to.
func (t *Table[E]) ShardOf(name string) int { return ShardIndex(name, len(t.shards)) }

// ShardInfos returns per-shard document counts, byte sizes and mutation
// counters. Mutations count from zero in each process: a corpus loaded or
// reopened from disk starts with none.
func (t *Table[E]) ShardInfos() []ShardInfo {
	out := make([]ShardInfo, len(t.shards))
	for i, sh := range t.shards {
		sh.mu.RLock()
		out[i] = ShardInfo{Shard: i, Documents: len(sh.byName), Bytes: sh.bytes, Mutations: sh.mutations}
		sh.mu.RUnlock()
	}
	return out
}

// TotalBytes returns the summed serialized size of all documents, from
// metadata alone.
func (t *Table[E]) TotalBytes() int {
	total := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		total += sh.bytes
		sh.mu.RUnlock()
	}
	return total
}

// ReserveID atomically allocates the next document ID, so a caller can
// parse and index a document outside any lock before registering it. A
// reservation wasted on a failed parse leaves a gap in the ID sequence,
// which is harmless.
func (t *Table[E]) ReserveID() int32 { return t.nextID.Add(1) - 1 }

// EnsureNextID raises the ID sequence so the next reservation returns at
// least id. Callers registering documents under externally assigned IDs
// (a cluster node ingesting under coordinator-assigned IDs, a load or
// reopen restoring saved IDs) use it to keep later local reservations from
// colliding with IDs already handed out. It never lowers the sequence.
func (t *Table[E]) EnsureNextID(id int32) {
	for {
		cur := t.nextID.Load()
		if cur >= id || t.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Entry returns the entry registered under name.
func (t *Table[E]) Entry(name string) (E, bool) {
	sh := t.shards[t.ShardOf(name)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.byName[name]
	return e, ok
}

// EntryByID returns the entry whose Dewey IDs start with docID, tombstoned
// ones included for as long as a pinned reader may hold their IDs. The
// lookup is lock-free: it never contends with a mutation on any shard.
func (t *Table[E]) EntryByID(docID int32) (E, bool) {
	if v, ok := t.byID.Load(docID); ok {
		return v.(E), true
	}
	var zero E
	return zero, false
}

// Scan calls fn once per shard, in shard order, with the shard's live
// entries under its read lock; fn must not modify the map.
func (t *Table[E]) Scan(fn func(shard int, live map[string]E)) {
	for i, sh := range t.shards {
		sh.mu.RLock()
		fn(i, sh.byName)
		sh.mu.RUnlock()
	}
}

// Add publishes e under its name and document ID in one write under the
// home shard's lock. It returns an error wrapping ErrDuplicateName, and
// publishes nothing, if the name is already taken.
func (t *Table[E]) Add(e E) error {
	info := e.Info()
	sh := t.shards[t.ShardOf(info.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.byName[info.Name]; dup {
		return fmt.Errorf("store: %w: %q", ErrDuplicateName, info.Name)
	}
	sh.byName[info.Name] = e
	sh.bytes += info.Bytes
	t.byID.Store(info.DocID, e)
	return nil
}

// Replace swaps e in for the entry registered under its name. drop, when
// non-nil, sees the old entry under the shard's write lock. The old
// entry's ID is tombstoned, not dropped: a reader that planned its search
// before the swap may still materialize the old subtree (see Pin), while
// any search planned afterwards resolves the name to the replacement only.
// It returns an error wrapping ErrUnknownName if the name is not
// registered.
func (t *Table[E]) Replace(e E, drop func(old E)) error {
	info := e.Info()
	sh := t.shards[t.ShardOf(info.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.byName[info.Name]
	if !ok {
		return fmt.Errorf("store: %w: %q", ErrUnknownName, info.Name)
	}
	sh.byName[info.Name] = e
	t.byID.Store(info.DocID, e)
	sh.bytes += info.Bytes - t.dropLocked(sh, old, drop)
	return nil
}

// Remove unregisters the entry stored under name. The document vanishes
// from every name-driven lookup immediately, so a search planned after
// Remove returns cannot see it; its ID entry is tombstoned rather than
// dropped, so a search planned before — which may already hold the
// document's IDs and materialize winners lock-free after releasing its
// shard locks — keeps resolving the old subtree until the last such reader
// unpins. drop is as for Replace. Removing an unknown name returns an
// error wrapping ErrUnknownName.
func (t *Table[E]) Remove(name string, drop func(old E)) error {
	sh := t.shards[t.ShardOf(name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.byName[name]
	if !ok {
		return fmt.Errorf("store: %w: %q", ErrUnknownName, name)
	}
	delete(sh.byName, name)
	sh.bytes -= t.dropLocked(sh, old, drop)
	return nil
}

// dropLocked accounts for an entry just unpublished from sh by name: one
// mutation, drop's view of it, and its tombstone. The name is gone before
// retire checks for pinned readers — the ordering the tombstone argument
// rests on. It returns the dropped document's byte size.
func (t *Table[E]) dropLocked(sh *tableShard[E], old E, drop func(E)) int {
	sh.mutations++
	if drop != nil {
		drop(old)
	}
	info := old.Info()
	t.retire(info.DocID)
	return info.Bytes
}

// Pin marks the start of a lock-free read epoch: until the matching Unpin,
// replaced and deleted documents stay resolvable by Dewey ID (EntryByID,
// InfoByID and the backends' Subtree), so a search that planned under
// shard locks and then released them before materializing its winners
// never observes a nil subtree. Searches that begin after a mutation never
// probe the retired IDs at all — the mutation removed the name under the
// same shard lock their planning takes — so tombstones are invisible to
// them regardless.
func (t *Table[E]) Pin() { t.pins.Add(1) }

// Unpin ends a Pin epoch. When the last pinned reader leaves, tombstoned
// ID entries are swept and their memory becomes reclaimable.
func (t *Table[E]) Unpin() {
	if t.pins.Add(-1) == 0 {
		t.sweep()
	}
}

// retire tombstones the ID entry of a replaced or deleted document. With
// no pinned readers it is dropped immediately; otherwise it joins the
// graveyard swept when the reader count next reaches zero. Under a
// continuously overlapping read load tombstones can accumulate until the
// first quiescent instant — they cost one map entry plus the retained
// entry each, never correctness.
func (t *Table[E]) retire(docID int32) {
	t.graveMu.Lock()
	t.grave = append(t.grave, docID)
	t.graveMu.Unlock()
	if t.pins.Load() == 0 {
		t.sweep()
	}
}

// sweep drops every tombstoned ID entry. A reader pinning concurrently
// with a sweep cannot be harmed: it planned (or will plan) under shard
// locks that already exclude the retired documents from every name lookup,
// so it holds none of their Dewey IDs.
func (t *Table[E]) sweep() {
	t.graveMu.Lock()
	ids := t.grave
	t.grave = nil
	t.graveMu.Unlock()
	for _, id := range ids {
		t.byID.Delete(id)
	}
}

// Tombstones returns the number of retired documents awaiting sweep
// (diagnostics and tests).
func (t *Table[E]) Tombstones() int {
	t.graveMu.Lock()
	defer t.graveMu.Unlock()
	return len(t.grave)
}

// Info returns the metadata of the document registered under name.
func (t *Table[E]) Info(name string) (DocInfo, bool) {
	if e, ok := t.Entry(name); ok {
		return e.Info(), true
	}
	return DocInfo{}, false
}

// InfoByID returns the metadata of the document whose Dewey IDs start with
// docID. Like EntryByID it resolves tombstoned documents for as long as a
// pinned reader may hold their IDs.
func (t *Table[E]) InfoByID(docID int32) (DocInfo, bool) {
	if e, ok := t.EntryByID(docID); ok {
		return e.Info(), true
	}
	return DocInfo{}, false
}

// Infos returns the metadata of all documents in document ID order.
func (t *Table[E]) Infos() []DocInfo { return t.InfosMatching("*") }

// InfosMatching returns the metadata of documents whose names match the
// pattern (docname.Match) in document ID order. An exact name — no '*' —
// matches at most its own document.
func (t *Table[E]) InfosMatching(pattern string) []DocInfo {
	if !docname.IsPattern(pattern) {
		if info, ok := t.Info(pattern); ok {
			return []DocInfo{info}
		}
		return nil
	}
	var out []DocInfo
	t.Scan(func(_ int, live map[string]E) {
		for name, e := range live {
			if docname.Match(pattern, name) {
				out = append(out, e.Info())
			}
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out
}

// CountFetch counts n, when non-nil, as one base-data fetch of n.ByteLen
// bytes and returns it; each backend's Subtree returns through it.
func (t *Table[E]) CountFetch(n *xmltree.Node) *xmltree.Node {
	if n != nil {
		t.subtreeFetches.Add(1)
		t.bytesFetched.Add(int64(n.ByteLen))
	}
	return n
}

// SubtreeFetches returns the number of counted Subtree calls.
func (t *Table[E]) SubtreeFetches() int { return int(t.subtreeFetches.Load()) }

// BytesFetched returns the summed serialized byte length of fetched
// subtrees.
func (t *Table[E]) BytesFetched() int { return int(t.bytesFetched.Load()) }
