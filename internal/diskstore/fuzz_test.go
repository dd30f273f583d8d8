package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"vxml/internal/dewey"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pred"
	"vxml/internal/xmltree"
)

// Seeds: real encoded payloads, so mutation starts from valid structure.
func seedNodePayload() []byte {
	children := []int64{8, 40}
	return appendNodePayload(nil, nodeRec{
		hash:     nodeHash("part", "widget", children),
		tag:      "part",
		value:    "widget",
		byteLen:  64,
		children: children,
	})
}

func seedIndexPayload() []byte {
	doc, err := xmltree.ParseString(`<a><b>hello world</b><c>hello again</c></a>`, "seed.xml", 3)
	if err != nil {
		panic(err)
	}
	return encodeIndexPayload(pathindex.Build(doc), invindex.Build(doc))
}

// FuzzDecodeNodePayload pins the block decoder's contract: arbitrary
// bytes never panic, and every rejection is a typed ErrCorrupt.
func FuzzDecodeNodePayload(f *testing.F) {
	f.Add(seedNodePayload())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeNodePayload(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A payload that decodes must re-encode to an equivalent record.
		re, err := decodeNodePayload(appendNodePayload(nil, rec))
		if err != nil || re.hash != rec.hash || re.tag != rec.tag || re.value != rec.value {
			t.Fatalf("re-encode round trip broke: %+v vs %+v (%v)", rec, re, err)
		}
	})
}

// FuzzDecodeIndexPayload: opening an index record and probing the opened
// views never panic and only fail typed. Each input is tried as found and
// with its checksum made to match, so that the parsers behind the checksum
// are reached; every directory keyword, and the input itself as a keyword,
// is then looked up, and every directory path matched and looked up with
// no predicate, a range and a textual equality, which decodes every list
// the directories admit.
func FuzzDecodeIndexPayload(f *testing.F) {
	f.Add(seedIndexPayload())
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		note := func(err error) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped list decode error: %v", err)
			}
		}
		resealed := bytes.Clone(data)
		if len(resealed) >= 4 {
			binary.LittleEndian.PutUint32(resealed, crc32.ChecksumIEEE(resealed[4:]))
		}
		for _, payload := range [][]byte{data, resealed} {
			pix, iix, _, err := decodeIndexPayload(payload, 7, note, new(viewCounters))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("untyped decode error: %v", err)
				}
				continue
			}
			for _, pl := range iix.Lists() {
				iix.Lookup(pl.Keyword).SubtreeTF(dewey.ID{7})
			}
			iix.Lookup(string(data)).SubtreeTF(dewey.ID{7, 1})
			for _, path := range pix.Paths() {
				var steps []pathindex.Step
				for _, tag := range strings.Split(path[1:], "/") {
					steps = append(steps, pathindex.Step{Axis: pathindex.Child, Tag: tag})
				}
				pix.MatchFullPaths(steps)
				for _, preds := range [][]pred.Predicate{nil, {{Op: pred.Gt, Lit: "1"}}, {{Op: pred.Eq, Lit: "hello"}}} {
					pix.LookupPath(steps, preds)
				}
			}
		}
	})
}

// FuzzFoldManifest: arbitrary manifest bytes never panic the loader; the
// fold either rejects the header (typed) or returns some valid prefix.
func FuzzFoldManifest(f *testing.F) {
	valid := []byte(manifestHeaderLine(4, "CORPUS-0000.vxd"))
	valid = append(valid, frameManifestRec([]byte(`{"op":"add","name":"a.xml","id":1,"root":8,"index":20,"ilen":12,"data":64}`))...)
	f.Add(valid)
	f.Add([]byte("#!vxdisk shards=2 data=CORPUS-1.vxd\n\x03\x00\x00\x00garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, off, err := parseManifestHeader(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped header error: %v", err)
			}
			return
		}
		recs, goodLen := foldManifest(data, off)
		if goodLen < int64(off) || goodLen > int64(len(data)) {
			t.Fatalf("fold returned prefix %d outside [%d,%d]", goodLen, off, len(data))
		}
		_ = recs
	})
}

// FuzzFrameAt drives the framed-record reader over a tiny in-memory store
// whose data log is the fuzz input, asserting no read at any offset can
// panic (reads may fail typed).
func FuzzRecordFrame(f *testing.F) {
	f.Add(appendFrame(nil, kindNode, seedNodePayload()))
	f.Add([]byte{kindNode, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, end, err := frameAt(data, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		if end < 0 || end > len(data) {
			t.Fatalf("frame end %d outside data", end)
		}
		if kind == kindNode {
			if _, err := decodeNodePayload(payload); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped node error: %v", err)
			}
		}
	})
}
