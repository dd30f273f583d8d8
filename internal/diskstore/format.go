// Package diskstore implements the disk-resident corpus backend: a
// DAG-compressed block file of subtree records plus an append-only,
// CRC-framed manifest, served through a bounded block cache. It satisfies
// store.Corpus (and core's IndexSource), so a Database opened over a disk
// directory answers every search byte-identically to the heap backend
// while keeping only hot documents and blocks resident.
//
// On-disk layout of a corpus directory:
//
//	CORPUS-<nonce>.vxd  append-only data log: subtree (DAG node) records
//	                    and per-document index records
//	MANIFEST.vxd        append-only manifest: a header line naming the
//	                    data file, then length+CRC framed JSON records
//	                    (add/replace/delete), each carrying the committed
//	                    data-log length at the time it was written
//
// Crash safety is structural, not fsync-based: a data-log append that
// tears leaves bytes no manifest record references (the loader trusts only
// the committed prefix), and a manifest append that tears fails its CRC
// frame and is ignored, so a directory always opens as the corpus before
// or after the interrupted operation — never half. Full saves (Create)
// write a fresh uniquely named data log and commit it by renaming the new
// manifest into place last, the same temp+rename discipline store.Save
// uses.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"strconv"
	"strings"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
)

// ManifestFileName is the manifest's name within a corpus directory; its
// presence is how Open (and cluster snapshot restore) recognizes a disk
// corpus as opposed to a store.Save directory.
const ManifestFileName = "MANIFEST.vxd"

// dataFilePrefix prefixes the uniquely named data log the manifest header
// points at (CORPUS-<nonce>.vxd).
const dataFilePrefix = "CORPUS-"

// manifestMagic opens the manifest header line:
// "#!vxdisk shards=<N> data=<file>".
const manifestMagic = "#!vxdisk"

// dataMagic is the 8-byte data-log header.
const dataMagic = "vxdata2\n"

// Record kinds in the data log.
const (
	kindNode  = byte('N') // one DAG subtree node
	kindIndex = byte('I') // one document's serialized indices
)

// maxRecordLen bounds a single record payload (64 MiB): larger lengths in
// a frame are treated as corruption rather than allocated.
const maxRecordLen = 64 << 20

// ErrCorrupt is wrapped by every decode failure: a torn or overwritten
// block, a bad CRC frame, a record that does not parse. Callers can
// classify with errors.Is. Decoders never panic on corrupt input — the
// fuzz target pins that.
var ErrCorrupt = errors.New("diskstore: corrupt corpus")

// ErrFormatVersion reports a corpus whose data log was written in a format
// version this build does not read (there is no reader for older versions).
var ErrFormatVersion = errors.New("diskstore: unsupported corpus format version")

// ErrNoCorpus reports that the directory holds no disk corpus (no
// readable manifest).
var ErrNoCorpus = errors.New("diskstore: no corpus in directory")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// uvarint decodes an unsigned varint at buf[off:], returning the value and
// the offset past it.
func uvarint(buf []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, 0, corruptf("bad varint at %d", off)
	}
	return v, off + n, nil
}

// uvarintLen decodes a varint that sizes a following field of width elem
// bytes, rejecting values that cannot fit in the remaining buffer — the
// bound that keeps corrupt records from driving huge allocations.
func uvarintLen(buf []byte, off int, elem int) (int, int, error) {
	v, off, err := uvarint(buf, off)
	if err != nil {
		return 0, 0, err
	}
	if elem < 1 {
		elem = 1
	}
	if v > uint64((len(buf)-off)/elem+1) {
		return 0, 0, corruptf("length %d exceeds record at %d", v, off)
	}
	return int(v), off, nil
}

func getBytes(buf []byte, off, n int) ([]byte, int, error) {
	if off+n > len(buf) {
		return nil, 0, corruptf("field of %d bytes overruns record at %d", n, off)
	}
	return buf[off : off+n], off + n, nil
}

// nodeRec is one decoded DAG subtree node: the element's tag, direct text
// value and serialized subtree length, plus the data-log offsets of its
// child records. Dewey IDs and parent pointers are per-occurrence — they
// are derived by navigation ordinals at decode time, which is exactly what
// makes structurally identical subtrees shareable.
type nodeRec struct {
	hash     uint64
	tag      string
	value    string
	byteLen  int
	children []int64
}

// appendFrame appends a framed record (kind, payload length, payload).
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// frameAt reads the record frame at buf[off:]: kind and payload bounds.
func frameAt(buf []byte, off int) (kind byte, payload []byte, end int, err error) {
	if off >= len(buf) {
		return 0, nil, 0, corruptf("record offset %d beyond data", off)
	}
	kind = buf[off]
	n, off2, err := uvarint(buf, off+1)
	if err != nil {
		return 0, nil, 0, err
	}
	if n > maxRecordLen || off2+int(n) > len(buf) {
		return 0, nil, 0, corruptf("record at %d claims %d bytes", off, n)
	}
	return kind, buf[off2 : off2+int(n)], off2 + int(n), nil
}

func appendNodePayload(dst []byte, r nodeRec) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.hash)
	dst = binary.AppendUvarint(dst, uint64(len(r.tag)))
	dst = append(dst, r.tag...)
	dst = binary.AppendUvarint(dst, uint64(len(r.value)))
	dst = append(dst, r.value...)
	dst = binary.AppendUvarint(dst, uint64(r.byteLen))
	dst = binary.AppendUvarint(dst, uint64(len(r.children)))
	for _, c := range r.children {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// decodeNodePayload decodes a node record payload. The stored structural
// hash is verified against the decoded content, so a block whose bytes
// were corrupted in a way that still parses is caught here.
func decodeNodePayload(payload []byte) (nodeRec, error) {
	var r nodeRec
	if len(payload) < 8 {
		return r, corruptf("node record of %d bytes", len(payload))
	}
	r.hash = binary.LittleEndian.Uint64(payload)
	off := 8
	n, off, err := uvarintLen(payload, off, 1)
	if err != nil {
		return r, err
	}
	b, off, err := getBytes(payload, off, n)
	if err != nil {
		return r, err
	}
	r.tag = string(b)
	if n, off, err = uvarintLen(payload, off, 1); err != nil {
		return r, err
	}
	if b, off, err = getBytes(payload, off, n); err != nil {
		return r, err
	}
	r.value = string(b)
	v, off, err := uvarint(payload, off)
	if err != nil {
		return r, err
	}
	r.byteLen = int(v)
	nc, off, err := uvarintLen(payload, off, 1)
	if err != nil {
		return r, err
	}
	r.children = make([]int64, nc)
	for i := range r.children {
		if v, off, err = uvarint(payload, off); err != nil {
			return r, err
		}
		r.children[i] = int64(v)
	}
	if h := nodeHash(r.tag, r.value, r.children); h != r.hash {
		return r, corruptf("node hash mismatch (stored %x, content %x)", r.hash, h)
	}
	return r, nil
}

// nodeHash is the structural subtree hash stored in every node record:
// FNV-1a over the tag, the direct text value and the child record offsets.
// Child offsets are themselves deduplicated bottom-up, so equal hashes at
// equal child refs mean structurally identical subtrees. The exact-match
// dedup map uses the full structural key (structKey); the hash doubles as
// a content checksum at decode time.
func nodeHash(tag, value string, children []int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))   //nolint:errcheck
	h.Write([]byte{0})     //nolint:errcheck
	h.Write([]byte(value)) //nolint:errcheck
	h.Write([]byte{0})     //nolint:errcheck
	var buf [binary.MaxVarintLen64]byte
	for _, c := range children {
		n := binary.PutUvarint(buf[:], uint64(c))
		h.Write(buf[:n]) //nolint:errcheck
	}
	return h.Sum64()
}

// structKey is the exact structural identity of a subtree: the material
// nodeHash digests, undigested. The dedup table maps it to the offset of
// the canonical record, so structure sharing never relies on a hash not
// colliding.
func structKey(tag, value string, children []int64) string {
	var b strings.Builder
	b.Grow(len(tag) + len(value) + 2 + 10*len(children))
	b.WriteString(tag)
	b.WriteByte(0)
	b.WriteString(value)
	b.WriteByte(0)
	var buf [binary.MaxVarintLen64]byte
	for _, c := range children {
		n := binary.PutUvarint(buf[:], uint64(c))
		b.Write(buf[:n])
	}
	return b.String()
}

// --- index records ---
//
// An index record serializes one document's path index (as pathindex.Rows)
// and inverted index so that a search can probe the inverted half without
// decoding it: a checksum and a header sizing the path half, the path half,
// then a sorted keyword directory giving each posting list's byte length,
// ahead of the lists themselves (docs/ARCHITECTURE.md draws the layout).
// Dewey IDs are stored RELATIVE to the document root (id[1:]): two documents
// with identical content then produce byte-identical index records, and the
// writer shares one record between them (keyed by the shared root node
// offset). The document ID is prepended again at decode time.

func appendRelID(dst []byte, id dewey.ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)-1))
	for _, c := range id[1:] {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encodeIndexPayload serializes both indices of one document.
func encodeIndexPayload(pix *pathindex.Index, iix *invindex.Index) []byte {
	rows := pix.Rows()
	path := binary.AppendUvarint(nil, uint64(len(rows)))
	pathPostings, pathComps := 0, 0
	for _, r := range rows {
		path = appendString(path, r.Path)
		if r.HasValue {
			path = append(path, 1)
		} else {
			path = append(path, 0)
		}
		path = appendString(path, r.Value)
		path = binary.AppendUvarint(path, uint64(len(r.Postings)))
		pathPostings += len(r.Postings)
		for _, p := range r.Postings {
			path = appendRelID(path, p.ID)
			path = binary.AppendUvarint(path, uint64(p.ByteLen))
			pathComps += len(p.ID) - 1
		}
	}
	var dir, lists []byte
	pls := iix.Lists()
	for _, pl := range pls {
		start, comps := len(lists), 0
		for _, p := range pl.Postings {
			comps += len(p.ID) - 1
		}
		lists = binary.AppendUvarint(lists, uint64(len(pl.Postings)))
		lists = binary.AppendUvarint(lists, uint64(comps))
		for _, p := range pl.Postings {
			lists = appendRelID(lists, p.ID)
			lists = binary.AppendUvarint(lists, uint64(p.TF))
		}
		dir = appendString(dir, pl.Keyword)
		dir = binary.AppendUvarint(dir, uint64(len(lists)-start))
	}
	dst := make([]byte, 4, 64+len(path)+len(dir)+len(lists))
	for _, v := range []int{iix.Elements(), len(path), pathPostings, pathComps} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = append(dst, path...)
	dst = binary.AppendUvarint(dst, uint64(len(pls)))
	dst = binary.AppendUvarint(dst, uint64(len(dir)))
	dst = append(append(dst, dir...), lists...)
	binary.LittleEndian.PutUint32(dst, crc32.ChecksumIEEE(dst[4:]))
	return dst
}

// cursor reads an index record's fields in order. The first failure sticks
// and every later read returns zero, so a decoder checks for it once.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) uvarint() (v uint64) {
	if c.err == nil {
		v, c.off, c.err = uvarint(c.buf, c.off)
	}
	return v
}

// count reads a varint counting items of at least elem bytes (uvarintLen).
func (c *cursor) count(elem int) (n int) {
	if c.err == nil {
		n, c.off, c.err = uvarintLen(c.buf, c.off, elem)
	}
	return n
}

func (c *cursor) bytes(n int) (b []byte) {
	if c.err == nil {
		b, c.off, c.err = getBytes(c.buf, c.off, n)
	}
	return b
}

// end returns the first failure; not having consumed all of buf is one.
func (c *cursor) end(what string) error {
	if c.err == nil && c.off != len(c.buf) {
		c.err = corruptf("%s ends at %d of %d bytes", what, c.off, len(c.buf))
	}
	return c.err
}

// idSlab carves root-relative Dewey IDs, re-rooted under a document ID, out
// of one allocation sized by the counts the record declares.
type idSlab struct {
	docID int32
	free  []int32 // one cell per ID (the document ID) plus one per component
}

func (s *idSlab) next(c *cursor) dewey.ID {
	depth := c.count(1)
	if c.err == nil && depth >= len(s.free) {
		c.err = corruptf("more Dewey components at %d than the record declares", c.off)
	}
	if c.err != nil {
		return nil
	}
	id := s.free[: depth+1 : depth+1]
	s.free = s.free[depth+1:]
	id[0] = s.docID
	for i := 1; i <= depth; i++ {
		id[i] = int32(c.uvarint())
	}
	return id
}

// indexRecord is an index record's parsed header: the counts, and where the
// two halves lie in the payload.
type indexRecord struct {
	payload                           []byte
	elements, pathPostings, pathComps int
	path                              []byte // the path half
	inverted                          int    // payload offset of the inverted half
}

// parseHeader parses the header of a payload at least its checksum long,
// without verifying it. A posting is at least two bytes, a component one:
// that bounds the counts, and the slabs sized from them, by the record.
func (rec *indexRecord) parseHeader() error {
	c := cursor{buf: rec.payload, off: 4}
	rec.elements = c.count(1)
	pathLen := c.count(1)
	rec.pathPostings, rec.pathComps = c.count(2), c.count(1)
	rec.path = c.bytes(pathLen)
	rec.inverted = c.off
	return c.err
}

// residentBytes estimates what a cached index over the record keeps on the
// heap: the record (the inverted half is served from it) plus the decoded
// path half — each posting in its row and, for a multi-valued path, again in
// the merged list; the IDs; the encoded size twice over for the strings (in
// the rows, in the B+-tree keys). Tree nodes and the directory are left out.
func (rec *indexRecord) residentBytes() int64 {
	const postingBytes = 56 // unsafe.Sizeof(pathindex.Posting{})
	return int64(len(rec.payload) + 2*len(rec.path) + 2*postingBytes*rec.pathPostings + 4*(rec.pathPostings+rec.pathComps))
}

// pathIndex decodes the path half, eagerly and whole (planning matches
// patterns against all of its paths, and it is a tenth of the inverted half
// in postings), reconstructing exactly what pathindex.Build produced.
func (rec *indexRecord) pathIndex(docID int32) (*pathindex.Index, error) {
	c := cursor{buf: rec.path}
	rows := make([]pathindex.Row, c.count(4)) // a row is at least four bytes
	ids := idSlab{docID, make([]int32, rec.pathPostings+rec.pathComps)}
	postings := make([]pathindex.Posting, rec.pathPostings)
	for i := range rows {
		r := &rows[i]
		r.Path = string(c.bytes(c.count(1)))
		r.HasValue = c.uvarint() != 0
		r.Value = string(c.bytes(c.count(1)))
		np := c.count(2)
		if np > len(postings) {
			return nil, corruptf("more path postings at %d than the record declares", c.off)
		}
		// Capped: pathindex.FromRows shares a single-row path's slice and
		// must copy, not grow into the next row's, when a path has several.
		r.Postings, postings = postings[:np:np], postings[np:]
		for j := range r.Postings {
			r.Postings[j] = pathindex.Posting{ID: ids.next(&c), ByteLen: int(c.uvarint()), Value: r.Value, HasValue: r.HasValue}
		}
	}
	if err := c.end("path half"); err != nil {
		return nil, err
	}
	return pathindex.FromRows(rows), nil
}

// listView is the inverted half of an index record as invindex's list
// source: the list bytes and where each directory slot's list ends in them.
type listView struct {
	docID int32
	lists []byte   // aliases the record
	ends  []uint32 // ends[slot] = end of the slot's list in lists
	note  func(error)
}

// invIndex parses the keyword directory and returns the inverted index as a
// view over the record's lists. note receives the error of any list that
// later fails to decode; such a list answers empty.
func (rec *indexRecord) invIndex(docID int32, note func(error)) (*invindex.Index, error) {
	c := cursor{buf: rec.payload, off: rec.inverted}
	keywords := make([]string, c.count(2))
	dir := cursor{buf: c.bytes(c.count(1))}
	if c.err != nil {
		return nil, c.err
	}
	v := &listView{docID: docID, lists: rec.payload[c.off:], ends: make([]uint32, len(keywords)), note: note}
	// One string holds the directory; the keywords are slices of it.
	blob, end := string(dir.buf), uint64(0)
	for i := range keywords {
		kw := dir.count(1)
		if dir.bytes(kw); dir.err != nil {
			return nil, dir.err
		}
		keywords[i] = blob[dir.off-kw : dir.off]
		if end += dir.uvarint(); dir.err != nil || end > uint64(len(v.lists)) {
			return nil, corruptf("keyword directory entry %d overruns the record's lists", i)
		}
		if v.ends[i] = uint32(end); i > 0 && keywords[i-1] >= keywords[i] {
			return nil, corruptf("keyword directory out of order at entry %d", i)
		}
	}
	if err := dir.end("keyword directory"); err != nil {
		return nil, err
	}
	if end != uint64(len(v.lists)) {
		return nil, corruptf("keyword directory covers %d of %d list bytes", end, len(v.lists))
	}
	return invindex.NewView(keywords, rec.elements, v.postings), nil
}

// postings decodes one slot's list: IDs in one slab, postings in one slice.
func (v *listView) postings(slot int) []invindex.Posting {
	start := uint32(0)
	if slot > 0 {
		start = v.ends[slot-1]
	}
	c := cursor{buf: v.lists[start:v.ends[slot]]}
	ps := make([]invindex.Posting, c.count(2))
	ids := idSlab{v.docID, make([]int32, len(ps)+c.count(1))}
	for i := range ps {
		ps[i] = invindex.Posting{ID: ids.next(&c), TF: int(c.uvarint())}
	}
	if err := c.end("posting list"); err != nil {
		v.note(err)
		return nil
	}
	return ps
}

// decodeIndexPayload opens an index record under the given document ID:
// checksum verified, the path index decoded, the inverted index a view over
// payload (which it keeps), and the pair's resident bytes.
func decodeIndexPayload(payload []byte, docID int32, note func(error)) (*pathindex.Index, *invindex.Index, int64, error) {
	if len(payload) < 4 || crc32.ChecksumIEEE(payload[4:]) != binary.LittleEndian.Uint32(payload) {
		return nil, nil, 0, corruptf("index record of %d bytes fails its checksum", len(payload))
	}
	rec := indexRecord{payload: payload}
	if err := rec.parseHeader(); err != nil {
		return nil, nil, 0, err
	}
	pix, err := rec.pathIndex(docID)
	if err != nil {
		return nil, nil, 0, err
	}
	iix, err := rec.invIndex(docID, note)
	return pix, iix, rec.residentBytes(), err
}

// --- manifest ---

// manifestRec is one manifest operation. DataLen is the committed data-log
// length at the time the record was written: the loader trusts exactly
// that prefix, which is what makes torn data-log appends invisible.
type manifestRec struct {
	Op       string `json:"op"` // "add", "replace", "delete"
	Name     string `json:"name"`
	DocID    int32  `json:"id"`
	Root     int64  `json:"root,omitempty"`  // data-log offset of the root node record
	Index    int64  `json:"index,omitempty"` // data-log offset of the index record
	IndexLen int    `json:"ilen,omitempty"`  // framed byte length of the index record
	Bytes    int    `json:"bytes,omitempty"` // serialized byte length of the document
	Nodes    int    `json:"nodes,omitempty"` // expanded (pre-dedup) element count
	DataLen  int64  `json:"data"`
}

// frameManifestRec wraps a JSON-encoded manifest record in its
// [length][crc32][payload] frame.
func frameManifestRec(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// manifestHeaderLine renders the manifest's first line.
func manifestHeaderLine(shards int, dataName string) string {
	return fmt.Sprintf("%s shards=%d data=%s\n", manifestMagic, shards, dataName)
}

// parseManifestHeader parses the header line, returning the shard count,
// the data file name, and the offset of the first record frame.
func parseManifestHeader(data []byte) (shards int, dataName string, off int, err error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 || !strings.HasPrefix(string(data[:nl]), manifestMagic) {
		return 0, "", 0, corruptf("bad manifest header")
	}
	for _, field := range strings.Fields(string(data[:nl]))[1:] {
		if v, ok := strings.CutPrefix(field, "shards="); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return 0, "", 0, corruptf("bad shard count %q", v)
			}
			shards = n
		}
		if v, ok := strings.CutPrefix(field, "data="); ok {
			dataName = v
		}
	}
	if shards == 0 || dataName == "" || strings.ContainsAny(dataName, "/\\") {
		return 0, "", 0, corruptf("manifest header missing shards= or data=")
	}
	return shards, dataName, nl + 1, nil
}
