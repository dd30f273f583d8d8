package scoring

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"vxml/internal/catalog"
	"vxml/internal/xmltree"
)

func mkResult(texts ...string) *xmltree.Node {
	root := xmltree.NewElement("r")
	for _, t := range texts {
		root.AppendLeaf("p", t)
	}
	return root
}

func TestSnippetFindsFirstHit(t *testing.T) {
	res := mkResult("nothing here", "all about XML views", "also xml")
	got := Snippet(res, []string{"xml"}, 160)
	if got != "all about XML views" {
		t.Errorf("Snippet = %q", got)
	}
}

func TestSnippetWholeTokenOnly(t *testing.T) {
	res := mkResult("the xmlification of things", "pure xml here")
	got := Snippet(res, []string{"xml"}, 160)
	if got != "pure xml here" {
		t.Errorf("Snippet matched a partial token: %q", got)
	}
}

func TestSnippetClipsLongText(t *testing.T) {
	long := strings.Repeat("pad ", 100) + "needle" + strings.Repeat(" tail", 100)
	res := mkResult(long)
	got := Snippet(res, []string{"needle"}, 60)
	if !strings.Contains(got, "needle") {
		t.Fatalf("hit missing from %q", got)
	}
	if len(got) > 70+6 { // width + ellipses
		t.Errorf("snippet too long: %d bytes", len(got))
	}
	if !strings.HasPrefix(got, "…") || !strings.HasSuffix(got, "…") {
		t.Errorf("expected ellipses on both sides: %q", got)
	}
}

func TestSnippetNoHit(t *testing.T) {
	res := mkResult("nothing relevant")
	if got := Snippet(res, []string{"absent"}, 160); got != "" {
		t.Errorf("Snippet = %q, want empty", got)
	}
}

func TestSnippetStartOfText(t *testing.T) {
	res := mkResult("needle at the very start of a long long long text value here")
	got := Snippet(res, []string{"needle"}, 30)
	if !strings.HasPrefix(got, "needle") {
		t.Errorf("Snippet = %q", got)
	}
	if !strings.HasSuffix(got, "…") {
		t.Errorf("expected trailing ellipsis: %q", got)
	}
}

// TestSnippetEmptyKeyword: a whitespace-only client keyword normalizes to
// "", which must match nothing rather than loop forever in matchToken
// (reachable remotely via the HTTP server's disjunctive search).
func TestSnippetEmptyKeyword(t *testing.T) {
	res := mkResult("alphanumeric start so afterOK is false at offset zero")
	if got := Snippet(res, []string{"", "start"}, 160); !strings.Contains(got, "start") {
		t.Errorf("Snippet = %q, want the non-empty keyword's context", got)
	}
	if got := Snippet(res, []string{""}, 160); got != "" {
		t.Errorf("Snippet with only an empty keyword = %q, want empty", got)
	}
	if got := matchToken("text", ""); got != -1 {
		t.Errorf("matchToken(_, \"\") = %d, want -1", got)
	}
}

func TestSnippetDefaultWidth(t *testing.T) {
	res := mkResult("short hit")
	if got := Snippet(res, []string{"hit"}, 0); got != "short hit" {
		t.Errorf("Snippet = %q", got)
	}
}

// TestMatchToken carries the cases of the lowered-copy matcher it
// replaced, with offsets counted in the original string.
func TestMatchToken(t *testing.T) {
	cases := []struct {
		text, k string
		want    int
	}{
		{"xml views", "xml", 0},
		{"the xml", "xml", 4},
		{"xmlish xml", "xml", 7},
		{"prexml postxml", "xml", -1},
		{"a-xml-b", "xml", 2},
		{"", "xml", -1},
		{"xml", "", -1},
		// A valid occurrence overlapping a rejected one must still be found.
		{"aa-a-a", "a-a", 3},
		{"xe-come-commerce text", "e-com", -1},
		{"xe-e-e", "e-e", 3},
		// Case folding, in place: offsets are the original's.
		{"The XML", "xml", 4},
		{"AbİCd", "abicd", 0},
		{"Ab İCd", "icd", 3},
		{"Ab-İ-Cd", "cd", 6},
		{"Hello Ünïcode", "ünïcode", 6},
		{"İ", "i", 0},
		{"\u212aELVİN", "kelvin", 0}, // Kelvin sign K (3 bytes) folds to k
		// A non-ASCII rune folding to an ASCII letter blocks the token.
		{"İxml", "xml", -1},
		{"xmlİ", "xml", -1},
		{"\u212axml xml", "xml", 7},
		{"xml\u212a", "xml", -1},
		// A non-ASCII letter folding to itself does not.
		{"éxmlü", "xml", 2},
		{"Ünïcode", "nïcode", 2},
		{"ünïcode", "ünïcode", 0},
		{"xml", "xmlx", -1},
	}
	for _, c := range cases {
		if got := matchToken(c.text, c.k); got != c.want {
			t.Errorf("matchToken(%q,%q) = %d, want %d", c.text, c.k, got, c.want)
		}
	}
}

// TestSnippetRuneBoundaries: clipping at arbitrary byte offsets must not
// split a multi-byte rune — the result would be invalid UTF-8, surfacing
// as U+FFFD once it passes through a JSON encoder.
func TestSnippetRuneBoundaries(t *testing.T) {
	// 2-byte runes on every side of the hit, width chosen so both clip
	// edges land mid-rune without snapping.
	long := strings.Repeat("é", 101) + " needle " + strings.Repeat("ü", 101)
	res := mkResult(long)
	for width := 20; width <= 70; width++ {
		got := Snippet(res, []string{"needle"}, width)
		if !utf8.ValidString(got) {
			t.Fatalf("width %d: snippet is invalid UTF-8: %q", width, got)
		}
		if !strings.Contains(got, "needle") {
			t.Fatalf("width %d: hit missing from %q", width, got)
		}
	}
	// 4-byte runes (emoji) too.
	long = strings.Repeat("🜚", 40) + " needle " + strings.Repeat("🜚", 40)
	res = mkResult(long)
	for width := 20; width <= 40; width++ {
		got := Snippet(res, []string{"needle"}, width)
		if !utf8.ValidString(got) {
			t.Fatalf("emoji width %d: snippet is invalid UTF-8: %q", width, got)
		}
	}
}

// TestSnippetLengthChangingFold: İ (U+0130, 2 bytes) lowercases to i
// (1 byte), so a hit offset computed on the lowercased copy is shifted
// relative to the original value. The window must be cut at the hit's
// position in the ORIGINAL string, or a narrow snippet misses the keyword
// entirely.
func TestSnippetLengthChangingFold(t *testing.T) {
	// 60 İ runes: lowered copy is 60 bytes shorter than the original, so
	// an unmapped offset points 60 bytes before the real hit.
	val := strings.Repeat("İ", 60) + " needle comes after the dotted capitals " + strings.Repeat("pad ", 30)
	res := mkResult(val)
	got := Snippet(res, []string{"needle"}, 30)
	if !strings.Contains(got, "needle") {
		t.Fatalf("hit missing from %q: fold misalignment", got)
	}
	if !utf8.ValidString(got) {
		t.Fatalf("snippet is invalid UTF-8: %q", got)
	}
	// Kelvin sign K (U+212A, 3 bytes) folds to k (1 byte): same property.
	val = strings.Repeat("K", 40) + " needle " + strings.Repeat("pad ", 30)
	res = mkResult(val)
	got = Snippet(res, []string{"needle"}, 24)
	if !strings.Contains(got, "needle") || !utf8.ValidString(got) {
		t.Fatalf("Kelvin fold: snippet = %q", got)
	}
}

// TestSnippetAllocations: matching reads the values in place, so a
// snippet allocates only its output — one string, ellipses included — and
// nothing at all when the excerpt is the whole value.
func TestSnippetAllocations(t *testing.T) {
	res := mkResult("Nothing To See Here", "Still Nothing Of Note",
		strings.Repeat("Padding Words ", 20)+"The XML Needle Sits Here"+strings.Repeat(" More Padding", 20))
	kws := []string{"absent", "needle"}
	var got string
	allocs := testing.AllocsPerRun(100, func() { got = Snippet(res, kws, 60) })
	if !strings.HasPrefix(got, "…") || !strings.HasSuffix(got, "…") || !strings.Contains(got, "Needle") {
		t.Fatalf("Snippet = %q, want the hit with both ellipses", got)
	}
	if allocs != 1 {
		t.Errorf("clipped snippet: %.0f allocations, want 1 (the excerpt)", allocs)
	}
	whole := mkResult("A Short Value With The Needle")
	allocs = testing.AllocsPerRun(100, func() { got = Snippet(whole, kws, 160) })
	if got != "A Short Value With The Needle" {
		t.Fatalf("Snippet = %q, want the whole value", got)
	}
	if allocs != 0 {
		t.Errorf("whole-value snippet: %.0f allocations, want 0", allocs)
	}
}

// FuzzSnippetMatch: on valid UTF-8 and normalized keywords, matchToken
// finds what the lowered-copy reference below finds, at the same offset
// of the original value. On invalid UTF-8 — which neither documents nor
// views let through — it must still stay inside the value.
func FuzzSnippetMatch(f *testing.F) {
	seeds := [][2]string{
		{"AbİCd", "c"},
		{"İ", "i"},
		{"İxml xml", "xml"},
		{"\u212axml xml", "xml"},
		{"xml\u212a", "xml"},
		{"\u212aELVİN", "Kelvin"},
		{"Hello Ünïcode", "ünïcode"},
		{"Ünïcode", "nïcode"},
		{"aa-a-a", "a-a"},
		{"xe-come-commerce text", "e-com"},
		{"xe-e-e", "e-e"},
		{"xmlish XML", " XML "},
		{strings.Repeat("\xff", 60) + " needle here", "needle"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, s, k string) {
		k = catalog.NormalizeKeyword(k)
		got := matchToken(s, k)
		if !utf8.ValidString(s) {
			if got < -1 || got >= len(s) {
				t.Fatalf("matchToken(%q, %q) = %d outside the value", s, k, got)
			}
			return
		}
		lower, offs := foldOffsets(s)
		want := indexToken(lower, k)
		if want >= 0 {
			want = offs(want)
		}
		if got != want {
			t.Fatalf("matchToken(%q, %q) = %d, reference %d", s, k, got, want)
		}
	})
}

// foldOffsets and indexToken are the reference matcher: lowercase a copy
// of the value, search it byte-wise, and map the hit back to the original.
// TestIndexToken and TestFoldOffsets pin the reference itself, so a
// FuzzSnippetMatch agreement means agreement with a known-good oracle.

func TestIndexToken(t *testing.T) {
	cases := []struct {
		text, k string
		want    int
	}{
		{"xml views", "xml", 0},
		{"the xml", "xml", 4},
		{"xmlish xml", "xml", 7},
		{"prexml postxml", "xml", -1},
		{"a-xml-b", "xml", 2},
		{"", "xml", -1},
		// A valid occurrence overlapping a rejected one must still be found.
		{"aa-a-a", "a-a", 3},
		{"xe-come-commerce text", "e-com", -1},
		{"xe-e-e", "e-e", 3},
	}
	for _, c := range cases {
		if got := indexToken(c.text, c.k); got != c.want {
			t.Errorf("indexToken(%q,%q) = %d, want %d", c.text, c.k, got, c.want)
		}
	}
}

// TestFoldOffsets pins the offset mapping itself.
func TestFoldOffsets(t *testing.T) {
	lower, offs := foldOffsets("AbİCd")
	if lower != "abicd" {
		t.Fatalf("folded = %q", lower)
	}
	// 'c' is at folded offset 3; in the original, 'C' is at byte 4
	// (A=0, b=1, İ=2..3, C=4).
	if got := offs(3); got != 4 {
		t.Errorf("offs(3) = %d, want 4", got)
	}
	if got := offs(0); got != 0 {
		t.Errorf("offs(0) = %d, want 0", got)
	}
	// Identity fast path for pure ASCII and for same-length folds.
	lower, offs = foldOffsets("Hello Ünïcode")
	if lower != "hello ünïcode" {
		t.Fatalf("folded = %q", lower)
	}
	if got := offs(7); got != 7 {
		t.Errorf("aligned offs(7) = %d, want 7", got)
	}
}

// foldOffsets lowercases s rune-by-rune (the same simple case mapping
// strings.ToLower applies) and returns the folded string plus a function
// mapping a byte offset in the folded string back to the byte offset of
// the corresponding rune in s. For the common case where folding changes
// no byte lengths, the mapping is the identity and costs nothing extra.
func foldOffsets(s string) (string, func(int) int) {
	aligned := true
	for _, r := range s {
		if utf8.RuneLen(unicode.ToLower(r)) != utf8.RuneLen(r) {
			aligned = false
			break
		}
	}
	if aligned {
		// Every rune folds to the same byte length, so every folded rune
		// occupies exactly its original byte range.
		return strings.ToLower(s), func(p int) int { return p }
	}
	var b strings.Builder
	b.Grow(len(s))
	offs := make([]int, 0, len(s))
	for i, r := range s {
		start := b.Len()
		b.WriteRune(unicode.ToLower(r))
		for j := start; j < b.Len(); j++ {
			offs = append(offs, i)
		}
	}
	return b.String(), func(p int) int {
		if p < 0 || p >= len(offs) {
			return len(s)
		}
		return offs[p]
	}
}

// indexToken finds keyword k as a whole token inside lowercase text,
// returning its byte offset or -1. An empty keyword matches nothing.
func indexToken(lower, k string) int {
	if k == "" {
		return -1
	}
	from := 0
	for {
		i := strings.Index(lower[from:], k)
		if i < 0 {
			return -1
		}
		pos := from + i
		beforeOK := pos == 0 || !isAlnum(lower[pos-1])
		afterOK := pos+len(k) >= len(lower) || !isAlnum(lower[pos+len(k)])
		if beforeOK && afterOK {
			return pos
		}
		// Advance by one byte, not len(k): a valid whole-token occurrence
		// can overlap a rejected one.
		from = pos + 1
		if from >= len(lower) {
			return -1
		}
	}
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}
