// Package diskstore implements the disk-resident corpus backend: a
// DAG-compressed block file of subtree records plus an append-only,
// CRC-framed manifest, served through a bounded block cache. It satisfies
// store.Corpus, indices included, so a Database opened over a disk
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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vxml/internal/dewey"
	"vxml/internal/intern"
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
const dataMagic = "vxdata3\n"

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
// child records. Dewey IDs are per-occurrence — they are derived by
// navigation ordinals at decode time, which is exactly what
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
// An index record serializes one document's path index and inverted index
// so that a search probes either without decoding it whole: a checksum, a
// header of counts, a directory (every path with its values' and its list's
// byte lengths, every keyword with its list's), the text (every path's
// values, then the keywords) and the lists (every path's, then every
// keyword's); docs/ARCHITECTURE.md draws the layout. Dewey IDs are stored
// RELATIVE to the document root (id[1:]): two documents with identical
// content then produce byte-identical index records, and the writer shares
// one record between them (keyed by the shared root node offset). The
// document ID is prepended again at decode time.

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
	var dir, text, lists []byte
	paths, pl := pix.Paths(), pix.Lists()
	values := 0
	for slot, path := range paths {
		nv := pl.Values(slot)
		values += nv
		dir = appendString(dir, path)
		dir = binary.AppendUvarint(dir, uint64(nv))
		for k := range nv {
			v := pl.Value(slot, k)
			dir = binary.AppendUvarint(dir, uint64(len(v)))
			text = append(text, v...)
		}
		start := len(lists)
		lists = appendPathList(lists, pl, slot)
		dir = binary.AppendUvarint(dir, uint64(len(lists)-start))
	}
	kls := iix.Lists()
	for _, kl := range kls {
		dir = binary.AppendUvarint(dir, uint64(len(kl.Keyword)))
		text = append(text, kl.Keyword...)
		start, comps := len(lists), 0
		for _, p := range kl.Postings {
			comps += len(p.ID) - 1
		}
		lists = binary.AppendUvarint(lists, uint64(len(kl.Postings)))
		lists = binary.AppendUvarint(lists, uint64(comps))
		for _, p := range kl.Postings {
			lists = appendRelID(lists, p.ID)
			lists = binary.AppendUvarint(lists, uint64(p.TF))
		}
		dir = binary.AppendUvarint(dir, uint64(len(lists)-start))
	}
	dst := make([]byte, 4, 64+len(dir)+len(text)+len(lists))
	for _, v := range []int{iix.Elements(), len(paths), values, len(kls), len(dir), len(text)} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	dst = append(append(append(dst, dir...), text...), lists...)
	binary.LittleEndian.PutUint32(dst, crc32.ChecksumIEEE(dst[4:]))
	return dst
}

// appendPathList encodes one path's list: its posting count, the relative
// Dewey components per ID (every element on a path sits at the same depth),
// then per posting those components, its subtree byte length and its value
// ordinal — 0 without a value, k+1 for the path's k-th value.
func appendPathList(dst []byte, pl pathindex.Lists, slot int) []byte {
	postings, nv := pl.Postings(slot, nil, nil), pl.Values(slot)
	comps := 0
	if len(postings) > 0 {
		comps = len(postings[0].ID) - 1
	}
	dst = binary.AppendUvarint(dst, uint64(len(postings)))
	dst = binary.AppendUvarint(dst, uint64(comps))
	for _, p := range postings {
		for _, c := range p.ID[1:] {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
		dst = binary.AppendUvarint(dst, uint64(p.ByteLen))
		ord := 0
		if p.HasValue {
			k, _ := sort.Find(nv, func(k int) int { return strings.Compare(p.Value, pl.Value(slot, k)) })
			ord = k + 1
		}
		dst = binary.AppendUvarint(dst, uint64(ord))
	}
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

// appendEnd reads the byte length of the next string or list the directory
// sizes and appends where it ends in its region of size bytes.
func (c *cursor) appendEnd(ends []uint32, size int) []uint32 {
	start := ends[len(ends)-1]
	if n := c.uvarint(); c.err == nil && n > uint64(size)-uint64(start) {
		c.err = corruptf("directory entry at %d overruns its region", c.off)
	} else {
		start += uint32(n)
	}
	return append(ends, start)
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

// storedIndex is an opened index record: its directory parsed into offset
// tables, and its text and lists — the only record bytes a cached index
// keeps — copied out of the buffer the record was read into, once each. It
// serves both indices' lists (pathLists, keywordLists).
type storedIndex struct {
	docID    int32
	elements int
	paths    []string // the path directory, interned
	text     string   // every path's values, then the keywords
	lists    []byte   // every path's list, then every keyword's
	// String g of text (the paths' values, then the keywords) is
	// text[strEnds[g]:strEnds[g+1]]; list s (the paths', then the
	// keywords') is lists[listEnds[s]:listEnds[s+1]]; path p's values are
	// strings firstValue[p] to firstValue[p+1]-1.
	strEnds, listEnds, firstValue []uint32
	note                          func(error) // receives a list's decode failure
}

// openIndexRecord parses the header and directory of a payload whose
// checksum has been verified (or that was just encoded) and copies out what
// the indices keep; payload itself is not retained. A path's directory
// entry is at least five bytes, a value's one and a keyword's two: that
// bounds the tables sized from the header's counts by the record.
func openIndexRecord(payload []byte, docID int32, note func(error)) (*storedIndex, error) {
	c := cursor{buf: payload, off: 4}
	s := &storedIndex{docID: docID, note: note, elements: c.count(1)}
	paths, values, keywords := c.count(5), c.count(1), c.count(2)
	dirLen, textLen := c.count(1), c.count(1)
	dir, text := cursor{buf: c.bytes(dirLen)}, c.bytes(textLen)
	if c.err != nil {
		return nil, c.err
	}
	lists := payload[c.off:]
	s.paths = make([]string, paths)
	s.firstValue = make([]uint32, paths+1)
	s.strEnds = make([]uint32, 1, values+keywords+1)
	s.listEnds = make([]uint32, 1, paths+keywords+1)
	str := func(g int) []byte { return text[s.strEnds[g]:s.strEnds[g+1]] }
	for p := range s.paths {
		path := dir.bytes(dir.count(1))
		if dir.err == nil && (len(path) < 2 || path[0] != '/' || p > 0 && s.paths[p-1] >= string(path)) {
			dir.err = corruptf("path directory entry %d is not a path in order", p)
		}
		s.paths[p] = intern.String(string(path))
		for k := range dir.count(1) {
			if s.strEnds = dir.appendEnd(s.strEnds, len(text)); dir.err == nil && k > 0 {
				if g := len(s.strEnds) - 2; bytes.Compare(str(g-1), str(g)) >= 0 {
					dir.err = corruptf("values of path %d out of order at %d", p, k)
				}
			}
		}
		s.firstValue[p+1] = uint32(len(s.strEnds) - 1)
		s.listEnds = dir.appendEnd(s.listEnds, len(lists))
	}
	if dir.err == nil && len(s.strEnds)-1 != values {
		dir.err = corruptf("path directory holds %d values, the header %d", len(s.strEnds)-1, values)
	}
	for k := range keywords {
		if s.strEnds = dir.appendEnd(s.strEnds, len(text)); dir.err == nil && k > 0 {
			if g := len(s.strEnds) - 2; bytes.Compare(str(g-1), str(g)) >= 0 {
				dir.err = corruptf("keyword directory out of order at entry %d", k)
			}
		}
		s.listEnds = dir.appendEnd(s.listEnds, len(lists))
	}
	if err := dir.end("directory"); err != nil {
		return nil, err
	}
	if s.strEnds[len(s.strEnds)-1] != uint32(len(text)) || s.listEnds[len(s.listEnds)-1] != uint32(len(lists)) {
		return nil, corruptf("directory covers %d of %d text and %d of %d list bytes",
			s.strEnds[len(s.strEnds)-1], len(text), s.listEnds[len(s.listEnds)-1], len(lists))
	}
	s.text, s.lists = string(text), bytes.Clone(lists)
	return s, nil
}

// indices returns the record's path index and inverted index, both views
// over what it keeps, counting what they serve into c.
func (s *storedIndex) indices(c *viewCounters) (*pathindex.Index, *invindex.Index) {
	return pathindex.NewView(s.paths, pathLists{s}, &c.probes), invindex.NewView(s.elements, keywordLists{s}, &c.lookups)
}

// residentBytes is what a cached index over the record keeps on the heap:
// the text and the lists, the offset tables, and the path directory with
// its split segments (pathindex.NewView). Struct headers and allocator
// rounding are left out.
func (s *storedIndex) residentBytes() int64 {
	const stringHeader, sliceHeader = 16, 24
	n := len(s.text) + len(s.lists) + 4*(len(s.strEnds)+len(s.listEnds)+len(s.firstValue))
	for _, p := range s.paths {
		n += stringHeader + sliceHeader + stringHeader*strings.Count(p, "/")
	}
	return int64(n)
}

func (s *storedIndex) str(g int) string     { return s.text[s.strEnds[g]:s.strEnds[g+1]] }
func (s *storedIndex) list(slot int) []byte { return s.lists[s.listEnds[slot]:s.listEnds[slot+1]] }

// pathLists is the path half of a stored index record as pathindex's
// Lists: values are substrings of the record's text, and a path's list is
// decoded on every call.
type pathLists struct{ *storedIndex }

// Values returns the number of distinct values on a path.
func (v pathLists) Values(slot int) int { return int(v.firstValue[slot+1] - v.firstValue[slot]) }

// Value returns a path's k-th value, a substring of the record's text.
func (v pathLists) Value(slot, k int) string { return v.str(int(v.firstValue[slot]) + k) }

// Postings decodes one path's list, keeping the postings whose value keep
// marks (all when keep is nil): postings in a fresh slice, or appended to
// dst when keep is set; the kept IDs in one fresh slab, since PDT nodes
// keep sub-slices of them; values sliced from the text. A list that fails
// to decode is noted and answers empty (dst as it was).
func (v pathLists) Postings(slot int, keep []bool, dst []pathindex.Posting) []pathindex.Posting {
	if keep == nil {
		dst = nil
	}
	c := cursor{buf: v.list(slot)}
	n, comps := c.uvarint(), c.uvarint()
	if c.err == nil && (comps >= uint64(len(c.buf)) || n > uint64(len(c.buf))/(comps+2)) {
		c.err = corruptf("path list of %d bytes claims %d postings of %d components", len(c.buf), n, comps)
	}
	if c.err != nil {
		v.note(c.err)
		return dst
	}
	width, kept, nv := int(comps)+1, int(n), uint64(v.Values(slot))
	if keep != nil {
		kept = countKept(c, kept, width-1, keep)
	}
	ps := dst
	if ps == nil {
		ps = make([]pathindex.Posting, 0, kept) // one allocation, also under the race detector
	} else {
		ps = slices.Grow(ps, kept)
	}
	// One ID to spare: a posting not kept is decoded into the next free
	// cell, which it does not claim.
	ids := make([]int32, (kept+1)*width)
	for range n {
		if len(ids) < width {
			c.err = corruptf("path list at %d keeps more postings than it counted", c.off)
			break
		}
		id := ids[:width:width]
		id[0] = v.docID
		for j := 1; j < width; j++ {
			id[j] = int32(c.uvarint())
		}
		byteLen, ord := c.uvarint(), c.uvarint()
		if c.err == nil && ord > nv {
			c.err = corruptf("value ordinal %d of %d at %d", ord, nv, c.off)
		}
		if c.err != nil {
			break
		}
		if keep != nil && (ord == 0 || !keep[ord-1]) {
			continue
		}
		p := pathindex.Posting{ID: id, ByteLen: int(byteLen)}
		if ord > 0 {
			p.Value, p.HasValue = v.Value(slot, int(ord-1)), true
		}
		ps = append(ps, p)
		ids = ids[width:]
	}
	if err := c.end("path list"); err != nil {
		v.note(err)
		clear(ps[len(dst):]) // what was decoded into dst's spare capacity
		return dst
	}
	return ps
}

// countKept counts the postings of a path list (c past its header) whose
// value keep marks.
func countKept(c cursor, n, comps int, keep []bool) int {
	kept := 0
	for range n {
		for range comps + 1 {
			c.uvarint()
		}
		if ord := c.uvarint(); ord > 0 && ord <= uint64(len(keep)) && keep[ord-1] {
			kept++
		}
	}
	return kept
}

// keywordLists is the inverted half of a stored index record as invindex's
// Stored: the keywords are substrings of the record's text, and a keyword's
// list is decoded on every lookup.
type keywordLists struct{ *storedIndex }

// Keywords returns the number of keywords in the directory.
func (v keywordLists) Keywords() int { return len(v.listEnds) - 1 - len(v.paths) }

// Keyword returns a directory slot's keyword, a substring of the record's
// text.
func (v keywordLists) Keyword(slot int) string { return v.str(int(v.firstValue[len(v.paths)]) + slot) }

// Postings decodes one keyword's list: IDs in one slab, postings in one
// slice. A list that fails to decode is noted and answers empty.
func (v keywordLists) Postings(slot int) []invindex.Posting {
	c := cursor{buf: v.list(len(v.paths) + slot)}
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
// checksum verified, both indices views over what the record keeps counting
// into c, and their resident bytes.
func decodeIndexPayload(payload []byte, docID int32, note func(error), c *viewCounters) (*pathindex.Index, *invindex.Index, int64, error) {
	if len(payload) < 4 || crc32.ChecksumIEEE(payload[4:]) != binary.LittleEndian.Uint32(payload) {
		return nil, nil, 0, corruptf("index record of %d bytes fails its checksum", len(payload))
	}
	s, err := openIndexRecord(payload, docID, note)
	if err != nil {
		return nil, nil, 0, err
	}
	pix, iix := s.indices(c)
	return pix, iix, s.residentBytes(), nil
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
