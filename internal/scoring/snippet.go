package scoring

import (
	"unicode"
	"unicode/utf8"

	"vxml/internal/xmltree"
)

// Snippet extracts a short keyword-in-context excerpt from a materialized
// result: the first text value in pre-order containing any query keyword,
// clipped to about width bytes around the earliest hit of any keyword.
// Picking the earliest occurrence (rather than the first keyword in list
// order) makes the snippet invariant under keyword permutation, so the
// query-result cache — which shares one entry across keyword orderings —
// returns exactly what the uncached path would. Keywords are matched in
// place by matchToken: whole tokens only, under simple rune-wise case
// folding, with no lowered copy of the value; the walk ends at the first
// value with a hit. The clip window is snapped to rune boundaries, so the
// excerpt is always valid UTF-8 even when the raw byte window would split a
// multi-byte rune. Returns "" when no keyword occurs in text content.
func Snippet(result *xmltree.Node, keywords []string, width int) string {
	if width <= 0 {
		width = 160
	}
	found, hitPos := firstHit(result, keywords)
	if hitPos < 0 {
		return ""
	}
	start := hitPos - width/2
	if start < 0 {
		start = 0
	}
	end := start + width
	if end > len(found) {
		end = len(found)
		if start > end-width && end-width >= 0 {
			start = end - width
		}
		if start < 0 {
			start = 0
		}
	}
	// Snap both bounds outward to rune boundaries: an arbitrary byte offset
	// can land inside a multi-byte rune, and slicing there would emit
	// invalid UTF-8 (U+FFFD once it reaches a JSON encoder).
	for start > 0 && !utf8.RuneStart(found[start]) {
		start--
	}
	for end < len(found) && !utf8.RuneStart(found[end]) {
		end++
	}
	// One concatenation per case, so the excerpt is the only allocation.
	out := found[start:end]
	switch {
	case start > 0 && end < len(found):
		return "…" + out + "…"
	case start > 0:
		return "…" + out
	case end < len(found):
		return out + "…"
	}
	return out
}

// firstHit returns the first text value under n, in pre-order, holding a
// whole-token hit of some keyword, with the byte offset of its earliest
// hit; -1 when no value holds one.
func firstHit(n *xmltree.Node, keywords []string) (string, int) {
	if n.Value != "" {
		best := -1
		for _, k := range keywords {
			if pos := matchToken(n.Value, k); pos >= 0 && (best < 0 || pos < best) {
				best = pos
			}
		}
		if best >= 0 {
			return n.Value, best
		}
	}
	for _, c := range n.Children {
		if v, pos := firstHit(c, keywords); pos >= 0 {
			return v, pos
		}
	}
	return "", -1
}

// matchToken returns the byte offset in s of the first whole-token
// occurrence of keyword k, or -1. k is compared against s lowercased rune
// by rune — the simple mapping strings.ToLower applies — so k must already
// be lowercase, as NormalizeKeyword leaves it. ASCII bytes fold by
// arithmetic; only other runes are decoded. Candidate starts are rune
// starts in ascending order, and the token boundary is checked only at a
// full match: the folded runes on either side must not be ASCII letters or
// digits. An empty keyword (whitespace-only client input normalizes to "")
// matches nothing.
func matchToken(s, k string) int {
	if k == "" {
		return -1
	}
	for i := 0; i < len(s); {
		// An ASCII start whose folded byte is not k's first cannot match:
		// skip it without a call.
		if c := s[i]; c < utf8.RuneSelf && foldByte(c) != k[0] {
			i++
			continue
		}
		if end := foldPrefix(s, i, k); end >= 0 && wholeToken(s, i, end) {
			return i
		}
		for i++; i < len(s) && !utf8.RuneStart(s[i]); i++ {
		}
	}
	return -1
}

// foldPrefix returns the end in s of a match of k starting at rune start
// i, with s folded rune by rune, or -1 when k does not match there. A
// folded rune matches only its exact UTF-8 encoding in k.
func foldPrefix(s string, i int, k string) int {
	for p := 0; p < len(k); {
		if i >= len(s) {
			return -1
		}
		if c := s[i]; c < utf8.RuneSelf {
			if foldByte(c) != k[p] {
				return -1
			}
			i++
			p++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		r = unicode.ToLower(r)
		kr, kn := utf8.DecodeRuneInString(k[p:])
		if kr != r || kn != utf8.RuneLen(r) {
			return -1
		}
		i += n
		p += kn
	}
	return i
}

// foldByte lowercases an ASCII byte.
func foldByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// wholeToken reports whether the match s[i:end] is a whole token: the
// folded runes on either side of it, if any, do not continue a token.
func wholeToken(s string, i, end int) bool {
	if i > 0 {
		if r, _ := utf8.DecodeLastRuneInString(s[:i]); tokenRune(r) {
			return false
		}
	}
	if end < len(s) {
		if r, _ := utf8.DecodeRuneInString(s[end:]); tokenRune(r) {
			return false
		}
	}
	return true
}

// tokenRune reports whether r, folded, continues a token: an ASCII letter
// or digit. A rune folding to anything else — even a non-ASCII letter —
// ends a token, as it does in xmltree.Tokenize.
func tokenRune(r rune) bool {
	r = unicode.ToLower(r)
	return 'a' <= r && r <= 'z' || '0' <= r && r <= '9'
}
