package diskstore

import (
	"encoding/binary"
	"fmt"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/xmltree"
)

// dagWriter is the structure-sharing encoder. It extends the string
// interning idea to whole subtrees: every subtree is keyed by its exact
// structural identity (tag, value, child record offsets — child subtrees
// having been deduplicated bottom-up first), and a subtree whose key was
// already written is represented by a reference to the existing record.
// Structurally identical subtrees therefore store one DAG node no matter
// how many documents or positions they occur at.
//
// The maps live only on the writing side; readers never consult them. They
// are rebuilt lazily by scanning the data log before the first mutation
// after open, so a read-only open never pays the scan.
type dagWriter struct {
	keys        map[string]int64 // structural key -> node record offset
	indexByRoot map[int64]extent // root node offset -> index record

	// Cumulative dedup counters (committed mutations only): nodesWritten
	// counts records appended, nodesShared counts references resolved to an
	// existing record. Their ratio is the structure-sharing win.
	nodesWritten int64
	nodesShared  int64
}

// extent is a framed record's place in the data log.
type extent struct {
	off int64
	n   int
}

// pending stages the data-log appends of one mutation. Records are
// assigned their final offsets (base = log end at staging time) but are
// buffered until the caller appends them in a single write; if that write
// fails or tears, rollback removes the staged keys so the dedup maps never
// reference bytes that were truncated away.
type pending struct {
	base          int64
	buf           []byte
	scratch       []byte
	newKeys       []string
	newIndexRoots []int64
	written       int64
	shared        int64
}

// addTree encodes the subtree rooted at n into p, returning the offset of
// its (possibly pre-existing) root record and the expanded element count.
func (w *dagWriter) addTree(p *pending, n *xmltree.Node) (int64, int) {
	nodes := 1
	children := make([]int64, len(n.Children))
	for i, c := range n.Children {
		off, cn := w.addTree(p, c)
		children[i] = off
		nodes += cn
	}
	key := structKey(n.Tag, n.Value, children)
	if off, ok := w.keys[key]; ok {
		p.shared++
		return off, nodes
	}
	off := p.base + int64(len(p.buf))
	p.scratch = appendNodePayload(p.scratch[:0], nodeRec{
		hash:     nodeHash(n.Tag, n.Value, children),
		tag:      n.Tag,
		value:    n.Value,
		byteLen:  n.ByteLen,
		children: children,
	})
	p.buf = appendFrame(p.buf, kindNode, p.scratch)
	w.keys[key] = off
	p.newKeys = append(p.newKeys, key)
	p.written++
	return off, nodes
}

// addIndex encodes the document's indices, shared by root offset: two
// documents with the same root record have identical content, and because
// index records store root-relative Dewey IDs their index payloads are
// byte-identical too — so they share one record. payload is the record's
// payload when this call wrote it, nil when an existing record is shared.
func (w *dagWriter) addIndex(p *pending, rootOff int64, pix *pathindex.Index, iix *invindex.Index) (at extent, payload []byte) {
	if at, ok := w.indexByRoot[rootOff]; ok {
		return at, nil
	}
	payload = encodeIndexPayload(pix, iix)
	start := len(p.buf)
	p.buf = appendFrame(p.buf, kindIndex, payload)
	at = extent{p.base + int64(start), len(p.buf) - start}
	w.indexByRoot[rootOff] = at
	p.newIndexRoots = append(p.newIndexRoots, rootOff)
	return at, payload
}

// commit folds the staged counters in; rollback removes the staged keys.
func (w *dagWriter) commit(p *pending) {
	w.nodesWritten += p.written
	w.nodesShared += p.shared
}

func (w *dagWriter) rollback(p *pending) {
	for _, k := range p.newKeys {
		delete(w.keys, k)
	}
	for _, r := range p.newIndexRoots {
		delete(w.indexByRoot, r)
	}
}

// --- reading ---

// readData returns n committed bytes at off, assembled block by block
// through the block cache. Only whole blocks that lie entirely within the
// committed prefix are cached: the log's tail block is still growing, so
// it is read directly and never pinned in a stale, short form.
func (ds *Store) readData(off int64, n int) ([]byte, error) {
	committed := ds.dataLen.Load()
	if off < 0 || n < 0 || off+int64(n) > committed {
		return nil, corruptf("read [%d,%d) beyond committed %d bytes", off, off+int64(n), committed)
	}
	if n == 0 {
		return nil, nil
	}
	bs := int64(ds.blocks.blockSiz)
	out := make([]byte, n)
	for pos := off; pos < off+int64(n); {
		idx := pos / bs
		blockStart := idx * bs
		blockEnd := blockStart + bs
		if blockEnd > committed {
			// Tail fragment: read the remaining span directly, uncached.
			want := out[pos-off:]
			if err := ds.source.ReadAt(want, pos); err != nil {
				return nil, err
			}
			ds.blocks.misses.Add(1)
			break
		}
		buf, ok := ds.blocks.Get(idx)
		if !ok {
			buf = make([]byte, bs)
			if err := ds.source.ReadAt(buf, blockStart); err != nil {
				return nil, err
			}
			ds.blocks.Put(idx, buf)
		}
		from := pos - blockStart
		pos += int64(copy(out[pos-off:], buf[from:]))
	}
	return out, nil
}

// frameAt reads the record frame at off, returning its kind, payload, and
// the offset of the next record.
func (ds *Store) frameAt(off int64) (kind byte, payload []byte, next int64, err error) {
	committed := ds.dataLen.Load()
	if off < int64(len(dataMagic)) || off >= committed {
		return 0, nil, 0, corruptf("record offset %d outside data log", off)
	}
	headLen := int64(1 + binary.MaxVarintLen64)
	if off+headLen > committed {
		headLen = committed - off
	}
	head, err := ds.readData(off, int(headLen))
	if err != nil {
		return 0, nil, 0, err
	}
	kind = head[0]
	n, m := binary.Uvarint(head[1:])
	if m <= 0 {
		return 0, nil, 0, corruptf("bad record length at %d", off)
	}
	payloadStart := off + 1 + int64(m)
	if n > maxRecordLen || payloadStart+int64(n) > committed {
		return 0, nil, 0, corruptf("record at %d claims %d bytes", off, n)
	}
	payload, err = ds.readData(payloadStart, int(n))
	if err != nil {
		return 0, nil, 0, err
	}
	return kind, payload, payloadStart + int64(n), nil
}

// readNodeAt decodes the node record at off.
func (ds *Store) readNodeAt(off int64) (nodeRec, error) {
	kind, payload, _, err := ds.frameAt(off)
	if err != nil {
		return nodeRec{}, err
	}
	if kind != kindNode {
		return nodeRec{}, corruptf("record at %d is kind %q, want node", off, kind)
	}
	return decodeNodePayload(payload)
}

// decodeSubtree materializes the subtree whose root record is at off,
// assigning per-occurrence Dewey IDs (root = id, i-th child = id.Child(i+1))
// — the information the DAG deliberately does not store, recovered from the
// navigation path.
func (ds *Store) decodeSubtree(off int64, id dewey.ID) (*xmltree.Node, error) {
	rec, err := ds.readNodeAt(off)
	if err != nil {
		return nil, err
	}
	n := &xmltree.Node{Tag: rec.tag, Value: rec.value, ID: id, ByteLen: rec.byteLen}
	if len(rec.children) > 0 {
		n.Children = make([]*xmltree.Node, len(rec.children))
		for i, c := range rec.children {
			child, err := ds.decodeSubtree(c, id.Child(int32(i+1)))
			if err != nil {
				return nil, err
			}
			n.Children[i] = child
		}
	}
	return n, nil
}

// hydrate materializes a document from its root record.
func (ds *Store) hydrate(e *docEntry) (*xmltree.Document, error) {
	root, err := ds.decodeSubtree(e.root, dewey.ID{e.docID})
	if err != nil {
		return nil, fmt.Errorf("diskstore: hydrate %q: %w", e.name, err)
	}
	return &xmltree.Document{Name: e.name, DocID: e.docID, Root: root}, nil
}

// subtreeAt resolves a Dewey ID directly over the compressed
// representation: navigate child-offset ordinals from the document's root
// record (decoding one node record per level), then materialize only the
// target subtree. Returns (nil, nil) when the path walks off the tree.
func (ds *Store) subtreeAt(e *docEntry, id dewey.ID) (*xmltree.Node, error) {
	off := e.root
	for depth := 1; depth < len(id); depth++ {
		rec, err := ds.readNodeAt(off)
		if err != nil {
			return nil, err
		}
		ord := int(id[depth])
		if ord < 1 || ord > len(rec.children) {
			return nil, nil
		}
		off = rec.children[ord-1]
	}
	return ds.decodeSubtree(off, id)
}

// loadDedupLocked rebuilds the dedup maps by scanning every committed
// record. It runs at most once per open, lazily before the first mutation,
// so opening a corpus for reading stays O(manifest) — the scan is the
// price of the first write after a restart, not of startup. The caller
// holds ds.mu.
func (ds *Store) loadDedupLocked() error {
	if ds.dag != nil {
		return nil
	}
	w := &dagWriter{keys: map[string]int64{}, indexByRoot: map[int64]extent{}}
	committed := ds.dataLen.Load()
	for off := int64(len(dataMagic)); off < committed; {
		kind, payload, next, err := ds.frameAt(off)
		if err != nil {
			return fmt.Errorf("diskstore: dedup scan: %w", err)
		}
		if kind == kindNode {
			rec, err := decodeNodePayload(payload)
			if err != nil {
				return fmt.Errorf("diskstore: dedup scan at %d: %w", off, err)
			}
			w.keys[structKey(rec.tag, rec.value, rec.children)] = off
		}
		off = next
	}
	// Index records carry no back-reference to their root; the manifest
	// does. Every manifest record — including superseded ones, whose data
	// remains valid — contributes a root->index pairing.
	for _, rec := range ds.history {
		if rec.Op != opDelete && rec.Index > 0 {
			w.indexByRoot[rec.Root] = extent{rec.Index, rec.IndexLen}
		}
	}
	ds.dag = w
	return nil
}
