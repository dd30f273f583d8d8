package diskstore

import (
	"container/list"
	"sync"
	"sync/atomic"

	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
)

// DefaultBlockSize is the data-log block granularity reads are cached at.
const DefaultBlockSize = 4096

// DefaultCacheBytes bounds the decoded-block cache (16 MiB).
const DefaultCacheBytes = 16 << 20

// DefaultDocCacheSize bounds the hydrated-document cache (documents).
const DefaultDocCacheSize = 64

// DefaultIndexCacheSize bounds the opened-index cache (documents).
const DefaultIndexCacheSize = 256

// blockCache is the bounded LRU over data-log blocks. Only whole blocks of
// the committed prefix are cached (readData), and committed bytes never
// change, so an entry cannot go stale.
type blockCache struct {
	mu       sync.Mutex
	blockSiz int
	maxBytes int64
	curBytes int64
	entries  map[int64]*list.Element
	lru      list.List // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

type blockEntry struct {
	idx int64
	buf []byte
}

func newBlockCache(blockSize int, maxBytes int64) *blockCache {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if maxBytes < 0 {
		maxBytes = DefaultCacheBytes
	}
	return &blockCache{blockSiz: blockSize, maxBytes: maxBytes, entries: map[int64]*list.Element{}}
}

// Get returns the cached block idx, counting a hit or miss.
func (c *blockCache) Get(idx int64) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[idx]
	var buf []byte
	if ok {
		c.lru.MoveToFront(el)
		// Read under the lock: a concurrent Put of the same block
		// replaces the entry's buf field.
		buf = el.Value.(*blockEntry).buf
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return buf, true
}

// Put inserts block idx, evicting from the back past the byte budget.
func (c *blockCache) Put(idx int64, buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes == 0 {
		return
	}
	if el, ok := c.entries[idx]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*blockEntry)
		c.curBytes += int64(len(buf)) - int64(len(e.buf))
		e.buf = buf
	} else {
		c.entries[idx] = c.lru.PushFront(&blockEntry{idx: idx, buf: buf})
		c.curBytes += int64(len(buf))
	}
	for c.curBytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*blockEntry)
		c.lru.Remove(back)
		delete(c.entries, e.idx)
		c.curBytes -= int64(len(e.buf))
	}
}

// stats returns (entries, bytes, hits, misses).
func (c *blockCache) stats() (int, int64, int64, int64) {
	c.mu.Lock()
	n, b := len(c.entries), c.curBytes
	c.mu.Unlock()
	return n, b, c.hits.Load(), c.misses.Load()
}

// docCache keeps recently hydrated documents resident, keyed by name and
// validated by document ID — a replace assigns the document a fresh ID, so
// the ID doubles as the per-name mutation generation and a stale tree can
// never be returned for a newer registration.
type docCache struct {
	mu      sync.Mutex
	maxDocs int
	entries map[string]*list.Element
	lru     list.List

	hits   atomic.Int64
	misses atomic.Int64
}

type docEntry2 struct {
	name  string
	docID int32
	doc   *xmltree.Document
}

func newDocCache(maxDocs int) *docCache {
	if maxDocs < 0 {
		maxDocs = DefaultDocCacheSize
	}
	return &docCache{maxDocs: maxDocs, entries: map[string]*list.Element{}}
}

// Get returns the cached tree for name if its registration ID still
// matches docID.
func (c *docCache) Get(name string, docID int32) (*xmltree.Document, bool) {
	c.mu.Lock()
	el, ok := c.entries[name]
	if ok && el.Value.(*docEntry2).docID == docID {
		c.lru.MoveToFront(el)
		doc := el.Value.(*docEntry2).doc // read under the lock: Put rewrites the entry in place
		c.mu.Unlock()
		c.hits.Add(1)
		return doc, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Put caches a hydrated document under its name and registration ID.
func (c *docCache) Put(name string, docID int32, doc *xmltree.Document) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxDocs == 0 {
		return
	}
	if el, ok := c.entries[name]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*docEntry2)
		e.docID, e.doc = docID, doc
		return
	}
	c.entries[name] = c.lru.PushFront(&docEntry2{name: name, docID: docID, doc: doc})
	for c.lru.Len() > c.maxDocs {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*docEntry2).name)
	}
}

// Drop evicts name (mutation and delete paths).
func (c *docCache) Drop(name string) {
	c.mu.Lock()
	if el, ok := c.entries[name]; ok {
		c.lru.Remove(el)
		delete(c.entries, name)
	}
	c.mu.Unlock()
}

// resident returns (documents, summed serialized bytes) currently cached.
func (c *docCache) resident() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	for _, el := range c.entries {
		if d := el.Value.(*docEntry2).doc; d != nil && d.Root != nil {
			bytes += int64(d.Root.ByteLen)
		}
	}
	return len(c.entries), bytes
}

// indexCache memoizes opened per-document indices (both views over their
// stored record), with the same name+docID validation as docCache. It is an
// LRU behind a frequency filter in the manner of TinyLFU (Einziger, Friedman
// & Manes, ACM ToS 2017): every Get counts an access to its name, and when a
// Put would evict, the candidate enters only if its name has been asked for
// more often than the LRU victim's. A visit to a cold group of documents
// therefore cannot flush the hot ones; a name that stays popular for about
// one window outcounts the fading ones and gets in.
type indexCache struct {
	mu      sync.Mutex
	maxDocs int
	entries map[string]*list.Element
	lru     list.List

	// freq counts Gets per name. After each window of counted Gets
	// (indexCacheWindow × maxDocs) every count is halved and the zeros
	// dropped, so old popularity fades and the table never holds more than
	// two windows' names.
	freq    map[string]int
	counted int

	hits    atomic.Int64
	misses  atomic.Int64
	refused atomic.Int64 // Puts the filter turned away
}

// indexCacheWindow is the number of counted Gets between halvings, in
// multiples of the capacity.
const indexCacheWindow = 10

type idxEntry struct {
	name  string
	docID int32
	pix   *pathindex.Index
	iix   *invindex.Index
	bytes int64 // what the entry keeps resident (storedIndex.residentBytes)
}

func newIndexCache(maxDocs int) *indexCache {
	if maxDocs < 0 {
		maxDocs = DefaultIndexCacheSize
	}
	return &indexCache{maxDocs: maxDocs, entries: map[string]*list.Element{}, freq: map[string]int{}}
}

// Get returns the cached indices for name if its registration ID still
// matches docID. Hit or miss, it counts an access to name.
func (c *indexCache) Get(name string, docID int32) (*pathindex.Index, *invindex.Index, bool) {
	c.mu.Lock()
	if c.maxDocs > 0 {
		c.countLocked(name)
	}
	el, ok := c.entries[name]
	if ok && el.Value.(*idxEntry).docID == docID {
		c.lru.MoveToFront(el)
		e := *el.Value.(*idxEntry) // copied under the lock: Put rewrites the entry in place
		c.mu.Unlock()
		c.hits.Add(1)
		return e.pix, e.iix, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, nil, false
}

// countLocked adds one access to name, halving every count once a window
// of accesses has been counted.
func (c *indexCache) countLocked(name string) {
	c.freq[name]++
	if c.counted++; c.counted < indexCacheWindow*c.maxDocs {
		return
	}
	c.counted = 0
	for n, f := range c.freq {
		if f /= 2; f == 0 {
			delete(c.freq, n)
		} else {
			c.freq[n] = f
		}
	}
}

// Put caches a document's opened indices. A name already cached is updated
// in place. Otherwise, when the cache is full, the indices enter only if
// their name has been asked for more often than the least recently used
// entry's, which they then evict; if not, they are refused and nothing is
// evicted. Put counts no access: a write is not a read.
func (c *indexCache) Put(name string, docID int32, pix *pathindex.Index, iix *invindex.Index, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxDocs == 0 {
		return
	}
	if el, ok := c.entries[name]; ok {
		c.lru.MoveToFront(el)
		if e := el.Value.(*idxEntry); e.docID != docID { // equal: a concurrent fill already landed
			e.docID, e.pix, e.iix, e.bytes = docID, pix, iix, bytes
		}
		return
	}
	if c.lru.Len() >= c.maxDocs {
		back := c.lru.Back()
		victim := back.Value.(*idxEntry)
		if c.freq[name] <= c.freq[victim.name] {
			c.refused.Add(1)
			return
		}
		c.lru.Remove(back)
		delete(c.entries, victim.name)
	}
	c.entries[name] = c.lru.PushFront(&idxEntry{name: name, docID: docID, pix: pix, iix: iix, bytes: bytes})
}

// Drop evicts name.
func (c *indexCache) Drop(name string) {
	c.mu.Lock()
	if el, ok := c.entries[name]; ok {
		c.lru.Remove(el)
		delete(c.entries, name)
	}
	c.mu.Unlock()
}

// resident returns (documents, summed resident bytes) currently cached.
func (c *indexCache) resident() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	for _, el := range c.entries {
		bytes += el.Value.(*idxEntry).bytes
	}
	return len(c.entries), bytes
}
