package diskstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/store"
	"vxml/internal/xmltree"
)

// Manifest operation names.
const (
	opAdd     = "add"
	opReplace = "replace"
	opDelete  = "delete"
)

// Options tunes a disk store. The zero value selects every default. Cache
// sizes use 0 for "default" and a negative value for "disabled", so tests
// can force every read through the disk path.
type Options struct {
	// BlockSize is the read-caching granularity (default 4 KiB).
	BlockSize int
	// CacheBytes bounds the decoded-block cache (default 16 MiB; <0 none).
	CacheBytes int64
	// DocCacheSize bounds the hydrated-document cache in documents
	// (default 64; <0 none).
	DocCacheSize int
	// IndexCacheSize bounds the opened-index cache in documents
	// (default 256; <0 none).
	IndexCacheSize int

	// fault, when set by in-package tests, tears writes after a byte
	// budget — the crash-safety property suite's seam.
	fault *faultPlan
}

func (o Options) blockSize() int {
	if o.BlockSize <= 0 {
		return DefaultBlockSize
	}
	return o.BlockSize
}

func (o Options) cacheBytes() int64 {
	if o.CacheBytes == 0 {
		return DefaultCacheBytes
	}
	return max(o.CacheBytes, 0)
}

func (o Options) docCacheSize() int {
	if o.DocCacheSize == 0 {
		return DefaultDocCacheSize
	}
	return max(o.DocCacheSize, 0)
}

func (o Options) indexCacheSize() int {
	if o.IndexCacheSize == 0 {
		return DefaultIndexCacheSize
	}
	return max(o.IndexCacheSize, 0)
}

// docEntry is the immutable per-document record: where the document's root
// node and index records live in the data log. All lookups resolve through
// these; the trees themselves stay on disk until fetched.
type docEntry struct {
	name  string
	docID int32
	root  int64
	index extent
	bytes int
	nodes int // expanded element count (0 for corpora written before tracking)
}

// Info implements store.Entry, straight from the manifest-backed record.
func (e *docEntry) Info() store.DocInfo {
	return store.DocInfo{Name: e.name, DocID: e.docID, Bytes: e.bytes}
}

// entryOf is the document-table entry a committed add or replace record
// describes.
func entryOf(rec manifestRec) *docEntry {
	return &docEntry{name: rec.Name, docID: rec.DocID, root: rec.Root, index: extent{rec.Index, rec.IndexLen}, bytes: rec.Bytes, nodes: rec.Nodes}
}

// Store is the disk-resident corpus backend. It satisfies store.Corpus,
// persisting each document's indices beside it, so an engine over it plans
// from manifest metadata, opens indices and reads subtrees on demand, and
// never needs the whole corpus in memory. Its document table is the
// store.Table both backends share, over immutable docEntry records.
//
// Concurrency: mutations serialize on mu (they append to shared files) and
// publish to the table only once their manifest record is committed;
// reads resolve docEntry records through the table and then decode
// outside any lock from the committed data-log prefix, which no mutation
// ever rewrites.
type Store struct {
	*store.Table[*docEntry]

	dir      string
	dataName string
	opts     Options

	mu       sync.RWMutex
	history  []manifestRec
	data     *appendFile
	manifest *appendFile
	dag      *dagWriter
	broken   error

	dataLen atomic.Int64 // committed data-log length
	gen     atomic.Int64 // committed mutations since open

	source    *fileSource
	blocks    *blockCache
	docsCache *docCache
	idxCache  *indexCache
	served    viewCounters

	lastDecodeErr atomic.Pointer[error]

	openWall time.Duration
}

// viewCounters is where every view over a store's index records counts the
// probes and lookups it serves. It belongs to the store, not to a cached
// index, so a probe counts whether or not the cache kept the index that
// served it.
type viewCounters struct{ probes, lookups atomic.Int64 }

// Compile-time check: the disk backend is a drop-in store.Corpus.
var _ store.Corpus = (*Store)(nil)

// Exists reports whether dir holds a disk corpus (a readable manifest).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestFileName))
	return err == nil
}

// newDataName picks an unused uniquely named data log within dir. The name
// is committed by the manifest header, which is what lets a full save into
// a live directory write its new log beside the old one and switch
// atomically.
func newDataName(dir string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%08x.vxd", dataFilePrefix, uint32(time.Now().UnixNano())+uint32(i)*2654435761)
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			return name
		}
	}
}

// Init creates an empty disk corpus with the given shard count in dir
// (creating it if needed) and opens it. It fails if dir already holds a
// corpus.
func Init(dir string, shards int, opts Options) (*Store, error) {
	if shards <= 0 {
		shards = store.DefaultShardCount()
	}
	if Exists(dir) {
		return nil, fmt.Errorf("diskstore: %s already holds a corpus", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataName := newDataName(dir)
	if err := writeFileAtomic(dir, dataName, []byte(dataMagic), opts.fault); err != nil {
		return nil, err
	}
	if err := writeFileAtomic(dir, ManifestFileName, []byte(manifestHeaderLine(shards, dataName)), opts.fault); err != nil {
		return nil, err
	}
	return OpenWith(dir, opts)
}

// writeFileAtomic writes a file via temp+rename, threading the fault seam.
func writeFileAtomic(dir, name string, data []byte, fault *faultPlan) error {
	tmp, err := os.CreateTemp(dir, "tmp-"+name+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //nolint:errcheck
	af := &appendFile{f: tmp, fault: fault}
	if err := af.Write(data); err != nil {
		tmp.Close() //nolint:errcheck
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

// OpenOrInit opens the disk corpus in dir, or creates an empty one with
// the default shard count when dir holds none yet.
func OpenOrInit(dir string, opts Options) (*Store, error) {
	if Exists(dir) {
		return OpenWith(dir, opts)
	}
	return Init(dir, 0, opts)
}

// Open opens the disk corpus in dir with default options.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith opens the disk corpus in dir. Startup cost is O(manifest):
// the manifest's valid record prefix is folded into the in-memory
// document table and everything else — trees, indices, the dedup maps —
// stays on disk until first use. A trailing torn manifest record (or torn
// data-log append) from an interrupted writer is discarded, restoring the
// corpus as of the last committed operation.
func OpenWith(dir string, opts Options) (*Store, error) {
	start := time.Now()
	mpath := filepath.Join(dir, ManifestFileName)
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNoCorpus, dir)
		}
		return nil, err
	}
	shards, dataName, recStart, err := parseManifestHeader(mdata)
	if err != nil {
		return nil, err
	}
	// Checked before anything is truncated: an older directory is refused
	// as found, not "repaired".
	dpath := filepath.Join(dir, dataName)
	data, err := openAppend(dpath, opts.fault)
	if err != nil {
		return nil, err
	}
	var magic [len(dataMagic)]byte
	if _, err := data.f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != dataMagic {
		data.Close() //nolint:errcheck
		if got := strings.TrimSpace(string(magic[:])); strings.HasPrefix(got, "vxdata") {
			return nil, fmt.Errorf("%w: data log %s is %s, this build reads only %s", ErrFormatVersion, dataName, got, strings.TrimSpace(dataMagic))
		}
		return nil, corruptf("data log %s has no header", dataName)
	}
	recs, goodLen := foldManifest(mdata, recStart)

	ds := &Store{
		Table:     store.NewTable[*docEntry](shards),
		dir:       dir,
		dataName:  dataName,
		opts:      opts,
		history:   recs,
		data:      data,
		blocks:    newBlockCache(opts.blockSize(), opts.cacheBytes()),
		docsCache: newDocCache(opts.docCacheSize()),
		idxCache:  newIndexCache(opts.indexCacheSize()),
	}

	// Replay: fold the records into the surviving documents, then publish
	// those. Replay counts no mutation and leaves no tombstone, so the
	// mutation counters start at zero, as after the heap backend's Load.
	committed := int64(len(dataMagic)) // the high-water mark of the records
	live := map[string]*docEntry{}
	for _, rec := range recs {
		committed = max(committed, rec.DataLen)
		ds.EnsureNextID(rec.DocID + 1)
		if rec.Op == opDelete {
			delete(live, rec.Name)
		} else {
			live[rec.Name] = entryOf(rec)
		}
	}
	for _, e := range live {
		ds.Add(e) //nolint:errcheck // names are unique in live
	}
	ds.dataLen.Store(committed)

	// Discard uncommitted tails left by an interrupted writer.
	ds.manifest, err = openAppend(mpath, opts.fault)
	if err != nil {
		ds.close() //nolint:errcheck
		return nil, err
	}
	if ds.manifest.off > goodLen {
		if err := ds.manifest.Truncate(goodLen); err != nil {
			ds.close() //nolint:errcheck
			return nil, err
		}
	}
	if ds.data.off < committed {
		ds.close() //nolint:errcheck
		return nil, corruptf("data log %s is %d bytes, manifest commits %d", dataName, ds.data.off, committed)
	}
	if ds.data.off > committed {
		if err := ds.data.Truncate(committed); err != nil {
			ds.close() //nolint:errcheck
			return nil, err
		}
	}
	// Reads go through a separate descriptor (pread).
	rf, err := os.Open(dpath)
	if err != nil {
		ds.close() //nolint:errcheck
		return nil, err
	}
	ds.source = &fileSource{f: rf}

	cleanupStale(dir, dataName)
	ds.openWall = time.Since(start)
	return ds, nil
}

// applyLocked publishes one committed mutation record to the document
// table. It cannot fail: the caller holds mu, which serializes mutations,
// and checked the name before committing.
func (ds *Store) applyLocked(rec manifestRec) {
	switch rec.Op {
	case opDelete:
		ds.Remove(rec.Name) //nolint:errcheck
	case opReplace:
		ds.Replace(entryOf(rec)) //nolint:errcheck
	default:
		ds.Add(entryOf(rec)) //nolint:errcheck
	}
}

// foldManifest decodes the manifest's record frames starting at off,
// stopping at the first torn, corrupt or implausible record. It returns
// the valid records and the byte length of the valid prefix.
func foldManifest(data []byte, off int) ([]manifestRec, int64) {
	var recs []manifestRec
	var dataHigh int64 = int64(len(dataMagic))
	for {
		if off+8 > len(data) {
			return recs, int64(off)
		}
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		crc := uint32(data[off+4]) | uint32(data[off+5])<<8 | uint32(data[off+6])<<16 | uint32(data[off+7])<<24
		if n > maxRecordLen || off+8+n > len(data) {
			return recs, int64(off)
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, int64(off)
		}
		var rec manifestRec
		if err := json.Unmarshal(payload, &rec); err != nil || !plausibleRecord(rec, dataHigh) {
			return recs, int64(off)
		}
		if rec.DataLen > dataHigh {
			dataHigh = rec.DataLen
		}
		recs = append(recs, rec)
		off += 8 + n
	}
}

// plausibleRecord applies the structural sanity checks that make a
// CRC-valid but semantically impossible record (from a corrupted file)
// stop the fold rather than poison the table.
func plausibleRecord(rec manifestRec, dataHigh int64) bool {
	switch rec.Op {
	case opAdd, opReplace:
		if rec.Root < int64(len(dataMagic)) || rec.Index < int64(len(dataMagic)) {
			return false
		}
		if rec.Root >= rec.DataLen || rec.IndexLen <= 0 || rec.Index+int64(rec.IndexLen) > rec.DataLen {
			return false
		}
	case opDelete:
	default:
		return false
	}
	return rec.Name != "" && rec.DocID > 0 && rec.DataLen >= dataHigh
}

// cleanupStale removes data logs and temp files that no manifest
// references — leftovers of an interrupted full save. Best-effort.
func cleanupStale(dir, keepData string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == keepData || ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, dataFilePrefix) && strings.HasSuffix(name, ".vxd") || strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck
		}
	}
}

// Create writes the whole corpus c as a disk corpus in dir and opens it.
// The data log is written under a fresh unique name and the manifest is
// renamed into place last, so a crash mid-save leaves any previous corpus
// in dir untouched. Each document's indices are the ones c keeps beside it
// (StoredIndices), persisted as they are, never rebuilt; indices, when
// non-nil, supplies them instead, and a nil result from it falls back to
// c's.
func Create(c store.Corpus, dir string, opts Options, indices func(name string) (*pathindex.Index, *invindex.Index)) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dataName := newDataName(dir)
	df, err := os.OpenFile(filepath.Join(dir, dataName), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	data := &appendFile{f: df, fault: opts.fault}
	w := &dagWriter{keys: map[string]int64{}, indexByRoot: map[int64]extent{}}
	var recs []manifestRec
	writeAll := func() error {
		if err := data.Write([]byte(dataMagic)); err != nil {
			return err
		}
		for _, doc := range store.DocsMatching(c, "*") {
			if doc.Root == nil {
				continue
			}
			p := &pending{base: data.off}
			rootOff, nodes := w.addTree(p, doc.Root)
			var pix *pathindex.Index
			var iix *invindex.Index
			if indices != nil {
				pix, iix = indices(doc.Name)
			}
			if pix == nil || iix == nil {
				var err error
				if pix, iix, err = c.StoredIndices(doc.Name); err != nil {
					return err
				}
			}
			idx, _ := w.addIndex(p, rootOff, pix, iix)
			if err := data.Write(p.buf); err != nil {
				return err
			}
			w.commit(p)
			recs = append(recs, manifestRec{
				Op: opAdd, Name: doc.Name, DocID: doc.DocID,
				Root: rootOff, Index: idx.off, IndexLen: idx.n,
				Bytes: doc.Root.ByteLen, Nodes: nodes, DataLen: data.off,
			})
		}
		return data.f.Sync()
	}
	if err := writeAll(); err != nil {
		df.Close() //nolint:errcheck
		return nil, fmt.Errorf("diskstore: create: %w", err)
	}
	if err := df.Close(); err != nil {
		return nil, err
	}
	var mbuf []byte
	mbuf = append(mbuf, manifestHeaderLine(c.ShardCount(), dataName)...)
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		mbuf = append(mbuf, frameManifestRec(payload)...)
	}
	if err := writeFileAtomic(dir, ManifestFileName, mbuf, opts.fault); err != nil {
		return nil, fmt.Errorf("diskstore: create: %w", err)
	}
	ds, err := OpenWith(dir, opts)
	if err != nil {
		return nil, err
	}
	// The freshly written dedup maps are exactly what the lazy rebuild
	// would rescan; hand them over so the first mutation skips the scan
	// and DiskStats reports the save's dedup counters.
	ds.dag = w
	return ds, nil
}

// close releases file handles (unexported half shared by Open's error
// paths, which have no source yet).
func (ds *Store) close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if ds.source != nil {
		note(ds.source.Close())
	}
	if ds.data != nil {
		note(ds.data.Close())
	}
	if ds.manifest != nil {
		note(ds.manifest.Close())
	}
	return first
}

// Close releases the store's file handles. The store must not be used
// afterwards.
func (ds *Store) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.broken = fmt.Errorf("diskstore: store closed")
	return ds.close()
}

// --- store.Corpus: lifecycle ---

// RegisterParsed registers a document with a reserved DocID, building its
// indices first (callers with indices in hand use RegisterIndexed).
func (ds *Store) RegisterParsed(doc *xmltree.Document) error {
	return ds.RegisterIndexed(doc, pathindex.Build(doc), invindex.Build(doc))
}

// ReplaceParsed swaps the document registered under doc.Name.
func (ds *Store) ReplaceParsed(doc *xmltree.Document) error {
	return ds.ReplaceIndexed(doc, pathindex.Build(doc), invindex.Build(doc))
}

// RegisterIndexed registers a parsed document together with its indices:
// DAG-encoded subtree records and the index record are appended to the
// data log (only new structure is written), then one manifest record
// commits the document. This is the store.Corpus write path — the indices
// the engine just built are persisted, not rebuilt.
func (ds *Store) RegisterIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.writableLocked(doc); err != nil {
		return err
	}
	if _, dup := ds.Entry(doc.Name); dup {
		return fmt.Errorf("diskstore: %w: %q", store.ErrDuplicateName, doc.Name)
	}
	return ds.appendDocLocked(opAdd, doc, pix, iix)
}

// ReplaceIndexed swaps the document registered under doc.Name for doc,
// appending only structure the corpus has not seen. The old document's
// records stay in the data log, so pinned readers keep resolving its Dewey
// IDs exactly as on the heap backend.
func (ds *Store) ReplaceIndexed(doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.writableLocked(doc); err != nil {
		return err
	}
	if _, ok := ds.Entry(doc.Name); !ok {
		return fmt.Errorf("diskstore: %w: %q", store.ErrUnknownName, doc.Name)
	}
	return ds.appendDocLocked(opReplace, doc, pix, iix)
}

// Delete unregisters the document stored under name: a single manifest
// record. Tombstone semantics match the heap backend (see Pin).
func (ds *Store) Delete(name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.broken != nil {
		return ds.broken
	}
	old, ok := ds.Entry(name)
	if !ok {
		return fmt.Errorf("diskstore: %w: %q", store.ErrUnknownName, name)
	}
	rec := manifestRec{Op: opDelete, Name: name, DocID: old.docID, DataLen: ds.data.off}
	if err := ds.appendManifestLocked(rec); err != nil {
		return err
	}
	ds.applyLocked(rec)
	ds.gen.Add(1)
	ds.docsCache.Drop(name)
	ds.idxCache.Drop(name)
	return nil
}

func (ds *Store) writableLocked(doc *xmltree.Document) error {
	if ds.broken != nil {
		return ds.broken
	}
	if doc == nil || doc.Root == nil {
		return fmt.Errorf("diskstore: document without a root cannot be stored")
	}
	return ds.loadDedupLocked()
}

// appendDocLocked stages and appends one document's data-log records and
// its manifest record, then applies the operation in memory. The data
// append lands first and commits the new data length; the manifest record
// is the commit point of the operation.
func (ds *Store) appendDocLocked(op string, doc *xmltree.Document, pix *pathindex.Index, iix *invindex.Index) error {
	p := &pending{base: ds.data.off}
	rootOff, nodes := ds.dag.addTree(p, doc.Root)
	idx, idxPayload := ds.dag.addIndex(p, rootOff, pix, iix)
	if err := ds.data.Write(p.buf); err != nil {
		// Torn data append: the staged keys point at bytes we now discard.
		ds.dag.rollback(p)
		if terr := ds.data.Truncate(ds.dataLen.Load()); terr != nil {
			ds.broken = fmt.Errorf("diskstore: truncate after torn append: %w", terr)
		}
		return fmt.Errorf("diskstore: append data: %w", err)
	}
	ds.dag.commit(p)
	ds.dataLen.Store(ds.data.off)
	rec := manifestRec{
		Op: op, Name: doc.Name, DocID: doc.DocID,
		Root: rootOff, Index: idx.off, IndexLen: idx.n,
		Bytes: doc.Root.ByteLen, Nodes: nodes, DataLen: ds.data.off,
	}
	if err := ds.appendManifestLocked(rec); err != nil {
		return err
	}
	ds.commitDocLocked(rec, doc, idxPayload)
	return nil
}

// appendManifestLocked appends one CRC-framed record; a torn append is
// truncated away so the manifest's valid prefix stays the commit log.
func (ds *Store) appendManifestLocked(rec manifestRec) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := ds.manifest.Write(frameManifestRec(payload)); err != nil {
		if terr := ds.manifest.Truncate(ds.manifest.off); terr != nil {
			ds.broken = fmt.Errorf("diskstore: truncate after torn manifest append: %w", terr)
		}
		return fmt.Errorf("diskstore: append manifest: %w", err)
	}
	ds.history = append(ds.history, rec)
	return nil
}

// commitDocLocked applies a committed add/replace to the in-memory tables
// and offers the caches the freshly parsed artifacts. The index cache
// admits them by the same rule as a miss's: a replace updates its cached
// entry in place, but a name that has not been asked for does not displace
// one that has. The indices offered are the views over the record just
// written — what a later miss would load, not the caller's indices with
// every list resident — and nothing when the document shares an existing
// record (idxPayload nil).
func (ds *Store) commitDocLocked(rec manifestRec, doc *xmltree.Document, idxPayload []byte) {
	ds.applyLocked(rec)
	ds.EnsureNextID(rec.DocID + 1)
	ds.gen.Add(1)
	ds.docsCache.Put(rec.Name, rec.DocID, doc)
	if idxPayload != nil {
		// Just encoded: no checksum to verify.
		if s, err := openIndexRecord(idxPayload, rec.DocID, ds.noteDecodeErr); err == nil {
			pix, iix := s.indices(&ds.served)
			ds.idxCache.Put(rec.Name, rec.DocID, pix, iix, s.residentBytes())
			return
		}
	}
	ds.idxCache.Drop(rec.Name)
}

// --- store.Corpus: tree and base-data access ---

// Doc returns the document registered under name, hydrating it from the
// data log (or the document cache) on demand.
func (ds *Store) Doc(name string) *xmltree.Document {
	e, ok := ds.Entry(name)
	if !ok {
		return nil
	}
	if doc, ok := ds.docsCache.Get(e.name, e.docID); ok {
		return doc
	}
	doc, err := ds.hydrate(e)
	if err != nil {
		ds.noteDecodeErr(err)
		return nil
	}
	ds.docsCache.Put(e.name, e.docID, doc)
	return doc
}

// Subtree fetches the element with the given Dewey ID directly over the
// compressed representation: child-offset ordinals are navigated from the
// document's root record and only the target subtree is materialized, so
// fetching one winner from a multi-megabyte document decodes kilobytes. A
// document already hydrated in the cache serves the fetch from memory.
func (ds *Store) Subtree(id dewey.ID) *xmltree.Node {
	if len(id) == 0 {
		return nil
	}
	e, ok := ds.EntryByID(id[0])
	if !ok {
		return nil
	}
	if doc, ok := ds.docsCache.Get(e.name, e.docID); ok {
		return ds.CountFetch(doc.FindByID(id))
	}
	n, err := ds.subtreeAt(e, id)
	if err != nil {
		ds.noteDecodeErr(err)
		return nil
	}
	return ds.CountFetch(n)
}

func (ds *Store) noteDecodeErr(err error) {
	ds.lastDecodeErr.Store(&err)
}

// --- store.Corpus: indices ---

// StoredIndices returns the document's persisted indices (memoized per
// document). A miss reads the index record with one pread of its exact
// extent, past the block cache (index records would thrash the node blocks
// out of it), and copies out of that buffer what the cached indices keep:
// the record's text and its lists, from which both serve lookups.
func (ds *Store) StoredIndices(name string) (*pathindex.Index, *invindex.Index, error) {
	e, ok := ds.Entry(name)
	if !ok {
		return nil, nil, fmt.Errorf("diskstore: %w: %q", store.ErrUnknownName, name)
	}
	if pix, iix, ok := ds.idxCache.Get(name, e.docID); ok {
		return pix, iix, nil
	}
	frame := make([]byte, e.index.n)
	if err := ds.source.ReadAt(frame, e.index.off); err != nil {
		return nil, nil, err
	}
	kind, payload, end, err := frameAt(frame, 0)
	if err != nil {
		return nil, nil, err
	}
	if kind != kindIndex || end != len(frame) {
		return nil, nil, corruptf("record at %d is kind %q of %d bytes, want an index record of %d", e.index.off, kind, end, len(frame))
	}
	pix, iix, resident, err := decodeIndexPayload(payload, e.docID, ds.noteDecodeErr, &ds.served)
	if err != nil {
		return nil, nil, fmt.Errorf("diskstore: indices of %q: %w", name, err)
	}
	ds.idxCache.Put(name, e.docID, pix, iix, resident)
	return pix, iix, nil
}

// IndexProbes returns the probes and lookups served since open by every
// index the store has opened, cached, evicted or refused by the cache.
func (ds *Store) IndexProbes() (pathProbes, keywordLookups int) {
	return int(ds.served.probes.Load()), int(ds.served.lookups.Load())
}

// --- stats and snapshotting ---

// CacheStats is one cache's hit/miss and occupancy counters. Capacity is
// bytes for the block cache and entries for the other two.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes,omitempty"`
	Capacity int64 `json:"capacity,omitempty"`
	// Refused counts the indices the index cache's admission filter turned
	// away (always 0 for the other caches).
	Refused int64 `json:"refused,omitempty"`
}

// Stats is a point-in-time snapshot of the disk backend's resource
// posture: how much is on disk, how much of it is resident, and how the
// caches are doing.
type Stats struct {
	Dir       string `json:"dir"`
	Documents int    `json:"documents"`
	// DataBytes is the committed data-log size — the corpus's on-disk
	// footprint after DAG compression.
	DataBytes     int64 `json:"data_bytes"`
	ManifestBytes int64 `json:"manifest_bytes"`
	// TotalBytes is the corpus's uncompressed serialized size; the ratio
	// DataBytes/TotalBytes is the structure-sharing win.
	TotalBytes int `json:"total_bytes"`
	// ResidentDocs/ResidentBytes describe the hydrated-document cache:
	// how much of the corpus is currently materialized on the heap.
	ResidentDocs  int   `json:"resident_docs"`
	ResidentBytes int64 `json:"resident_bytes"`
	// NodesWritten/NodesShared count DAG encoding outcomes of committed
	// writes since open (Create folds the full save in).
	NodesWritten int64      `json:"nodes_written"`
	NodesShared  int64      `json:"nodes_shared"`
	BlockSize    int        `json:"block_size"`
	BlockCache   CacheStats `json:"block_cache"`
	DocCache     CacheStats `json:"doc_cache"`
	IndexCache   CacheStats `json:"index_cache"`
	Generation   int64      `json:"generation"`
	// OpenMillis is the wall time the last Open spent — the cold-start
	// cost, O(manifest) rather than O(corpus).
	OpenMillis float64 `json:"open_millis"`
}

// DiskStats returns the current stats snapshot.
func (ds *Store) DiskStats() Stats {
	st := Stats{
		Dir:        ds.dir,
		TotalBytes: ds.TotalBytes(),
		BlockSize:  ds.blocks.blockSiz,
		OpenMillis: float64(ds.openWall.Microseconds()) / 1000,
	}
	for _, sh := range ds.ShardInfos() {
		st.Documents += sh.Documents
	}
	ds.mu.RLock()
	st.DataBytes, st.ManifestBytes, st.Generation = ds.dataLen.Load(), ds.manifest.off, ds.gen.Load()
	if ds.dag != nil {
		st.NodesWritten, st.NodesShared = ds.dag.nodesWritten, ds.dag.nodesShared
	}
	ds.mu.RUnlock()
	st.ResidentDocs, st.ResidentBytes = ds.docsCache.resident()
	entries, bytes, hits, misses := ds.blocks.stats()
	st.BlockCache = CacheStats{Hits: hits, Misses: misses, Entries: entries, Bytes: bytes, Capacity: ds.blocks.maxBytes}
	st.DocCache = CacheStats{Hits: ds.docsCache.hits.Load(), Misses: ds.docsCache.misses.Load(), Entries: st.ResidentDocs,
		Bytes: st.ResidentBytes, Capacity: int64(ds.docsCache.maxDocs)}
	idxEntries, idxBytes := ds.idxCache.resident()
	st.IndexCache = CacheStats{Hits: ds.idxCache.hits.Load(), Misses: ds.idxCache.misses.Load(), Entries: idxEntries,
		Bytes: idxBytes, Capacity: int64(ds.idxCache.maxDocs), Refused: ds.idxCache.refused.Load()}
	return st
}

// SnapshotFiles emits the corpus's raw on-disk files (data log first,
// manifest last, mirroring commit order) — the cluster ships these bytes
// verbatim instead of re-serializing every document, so a snapshot of a
// disk-backed node costs O(compressed bytes). Mutations are excluded for
// the duration, so the pair is consistent.
func (ds *Store) SnapshotFiles(emit func(name string, data []byte) error) error {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	if ds.broken != nil {
		return ds.broken
	}
	data, err := os.ReadFile(filepath.Join(ds.dir, ds.dataName))
	if err != nil {
		return err
	}
	if int64(len(data)) > ds.dataLen.Load() {
		data = data[:ds.dataLen.Load()]
	}
	if err := emit(ds.dataName, data); err != nil {
		return err
	}
	mdata, err := os.ReadFile(filepath.Join(ds.dir, ManifestFileName))
	if err != nil {
		return err
	}
	if int64(len(mdata)) > ds.manifest.off {
		mdata = mdata[:ds.manifest.off]
	}
	return emit(ManifestFileName, mdata)
}
