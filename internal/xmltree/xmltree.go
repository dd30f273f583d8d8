// Package xmltree provides the XML document model used by the whole system:
// element trees with Dewey IDs, an XML parser and serializer, a text
// tokenizer, and subtree byte lengths (paper §2.1, §3.2).
//
// Following the paper, attributes are treated as though they were
// subelements, and keyword containment is defined over element text content
// (contains(u,k) holds iff k occurs in the text of u or of a descendant).
package xmltree

import (
	"bufio"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"vxml/internal/dewey"
	"vxml/internal/intern"
)

// Node is an XML element. Text content directly inside the element is
// concatenated into Value; attributes are converted to leading child
// elements. Children are ordered, and the i-th child (0-based) carries the
// Dewey component i+1.
//
// A node has no parent pointer: a tree is read-only once built, and a
// subtree may be shared — by a document, the pruned trees and view results
// that link to it, and the search results that hand it out — so it cannot
// name a single parent.
type Node struct {
	Tag      string
	Value    string
	Children []*Node
	ID       dewey.ID
	// ByteLen is the serialized byte length of the subtree rooted here,
	// computed once at load time (paper: len(e), used for score
	// normalization and verified by Theorem 4.1(b)). A 'c' PDT element keeps
	// its base element's ID and ByteLen, so it stands for the whole base
	// subtree it was cut from.
	ByteLen int
	// Meta marks a pruned element whose content is propagated to the view
	// output (a 'c'-annotated QPT node), optionally with its per-query-keyword
	// term frequencies (paper Figure 6b). Nil for ordinary nodes.
	Meta *NodeMeta
}

// NodeMeta is the scoring payload of a 'c'-annotated PDT element: the base
// subtree's term frequencies, aligned with the query keyword list. The
// subtree's identity and length are the element's own ID and ByteLen.
type NodeMeta struct {
	TFs []int
}

// ContentMark is the Meta of every 'c' element built without term
// frequencies. It is shared and must not be written.
var ContentMark = &NodeMeta{}

// Document is a parsed XML document. DocID is the first Dewey component of
// every element in the document, so IDs from different documents interleave
// correctly in a single global document order.
type Document struct {
	Name  string
	Root  *Node
	DocID int32
}

// NewElement creates a detached element node.
func NewElement(tag string) *Node { return &Node{Tag: tag} }

// AppendChild attaches c as the last child of n and returns c.
func (n *Node) AppendChild(c *Node) *Node {
	n.Children = append(n.Children, c)
	return c
}

// AppendLeaf attaches a new leaf child with the given tag and value.
func (n *Node) AppendLeaf(tag, value string) *Node {
	return n.AppendChild(&Node{Tag: tag, Value: value})
}

// maxDepth bounds element nesting in a parsed document, at libxml2's
// default. Every element's Dewey ID is as long as its depth, so ID storage
// grows with the square of the depth: a 400 KB document nested 100,000
// deep would take about 20 GB.
const maxDepth = 256

// ErrTooDeep reports a document whose elements nest deeper than Parse
// accepts (compare with errors.Is).
var ErrTooDeep = errors.New("elements nested too deeply")

// ErrMalformed reports a document that is not well-formed XML: a syntax
// error, a second root element, an unbalanced end tag or no element at
// all. Every Parse error but ErrTooDeep wraps it (compare with errors.Is).
var ErrMalformed = errors.New("malformed XML")

// Parse reads an XML document from r, converts attributes to subelements,
// assigns Dewey IDs rooted at docID, and computes subtree byte lengths. A
// document nested more than maxDepth elements deep fails with ErrTooDeep,
// one that is not well-formed with ErrMalformed.
func Parse(r io.Reader, name string, docID int32) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse %s: %w: %w", name, ErrMalformed, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == maxDepth {
				return nil, fmt.Errorf("xmltree: parse %s: %w (limit %d)", name, ErrTooDeep, maxDepth)
			}
			// Tag names recur across every element, document and shard;
			// interning retains one canonical copy per distinct name instead
			// of one per element.
			n := NewElement(intern.String(t.Name.Local))
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.AppendLeaf(intern.String(a.Name.Local), a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse %s: %w: multiple roots", name, ErrMalformed)
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse %s: %w: unbalanced end tag", name, ErrMalformed)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := strings.TrimSpace(string(t))
				if text != "" {
					top := stack[len(stack)-1]
					if top.Value != "" {
						top.Value += " "
					}
					top.Value += text
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse %s: %w: empty document", name, ErrMalformed)
	}
	doc := &Document{Name: name, Root: root, DocID: docID}
	doc.Finalize()
	return doc, nil
}

// ParseString is Parse over a string.
func ParseString(s, name string, docID int32) (*Document, error) {
	return Parse(strings.NewReader(s), name, docID)
}

// Finalize (re)assigns Dewey IDs and byte lengths for the
// whole document. Call it after constructing or mutating a tree by hand.
func (d *Document) Finalize() {
	assignIDs(d.Root, dewey.ID{d.DocID})
	computeLen(d.Root)
}

func assignIDs(n *Node, id dewey.ID) {
	n.ID = id
	for i, c := range n.Children {
		assignIDs(c, id.Child(int32(i+1)))
	}
}

// computeLen computes the serialized byte length of each subtree: tags cost
// len(tag)*2+5 bytes ("<t>" + "</t>"), text costs its length. The same
// formula is used by the scoring module when reconstructing lengths from
// PDTs, so Theorem 4.1(b) is checkable exactly.
func computeLen(n *Node) int {
	total := 2*len(n.Tag) + 5 + len(n.Value)
	for _, c := range n.Children {
		total += computeLen(c)
	}
	n.ByteLen = total
	return total
}

// Walk visits n and all descendants in document (pre-) order.
func (n *Node) Walk(visit func(*Node)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// FindByID returns the descendant-or-self of the document root with the
// given Dewey ID, or nil if it does not exist.
func (d *Document) FindByID(id dewey.ID) *Node {
	if len(id) == 0 || id[0] != d.DocID {
		return nil
	}
	n := d.Root
	for depth := 1; depth < len(id); depth++ {
		ord := int(id[depth])
		if ord < 1 || ord > len(n.Children) {
			return nil
		}
		n = n.Children[ord-1]
	}
	return n
}

// IsLeaf reports whether n has no element children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// NodeCount returns the number of elements in the subtree rooted at n.
func (n *Node) NodeCount() int {
	count := 1
	for _, c := range n.Children {
		count += c.NodeCount()
	}
	return count
}

// WriteXML serializes the subtree rooted at n to w with proper escaping.
// indent enables human-readable output; an empty indent yields compact XML.
func (n *Node) WriteXML(w io.Writer, indent string) error {
	return writeXML(w, n, indent, 0)
}

func writeXML(w io.Writer, n *Node, indent string, depth int) error {
	if sb, ok := w.(*strings.Builder); ok { // XMLString: in memory, cannot fail
		xmlWriter{sb, indent}.node(n, depth)
		return nil
	}
	// Anything else may be an unbuffered file (store.Save): hand it blocks,
	// not the fragments of a tag. bufio keeps the first write error and
	// Flush returns it.
	bw := bufio.NewWriter(w)
	xmlWriter{bw, indent}.node(n, depth)
	return bw.Flush()
}

// xmlWriter serializes a subtree fragment by fragment into a writer whose
// WriteString is cheap and whose errors need no checking per call.
type xmlWriter struct {
	w      io.StringWriter
	indent string
}

// line writes the parts as one line at the given depth (padding and line
// break only when indenting).
func (x xmlWriter) line(depth int, parts ...string) {
	for ; x.indent != "" && depth > 0; depth-- {
		x.w.WriteString(x.indent) //nolint:errcheck // see writeXML
	}
	for _, p := range parts {
		x.w.WriteString(p) //nolint:errcheck
	}
	if x.indent != "" {
		x.w.WriteString("\n") //nolint:errcheck
	}
}

func (x xmlWriter) node(n *Node, depth int) {
	if n.IsLeaf() {
		x.line(depth, "<", n.Tag, ">", escape(n.Value), "</", n.Tag, ">")
		return
	}
	x.line(depth, "<", n.Tag, ">")
	if n.Value != "" {
		x.line(depth+1, escape(n.Value))
	}
	for _, c := range n.Children {
		x.node(c, depth+1)
	}
	x.line(depth, "</", n.Tag, ">")
}

// XMLString returns the serialized subtree as a string. Compact output is
// sized up front by a walk of the subtree — not from ByteLen, which on a
// pruned element is the length of the base subtree it stands for.
func (n *Node) XMLString(indent string) string {
	var b strings.Builder
	if indent == "" {
		b.Grow(compactLen(n))
	}
	n.WriteXML(&b, indent) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// compactLen is the length of the subtree's compact serialization before
// escaping.
func compactLen(n *Node) int {
	size := 2*len(n.Tag) + 5 + len(n.Value)
	for _, c := range n.Children {
		size += compactLen(c)
	}
	return size
}

var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")

func escape(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	return escaper.Replace(s)
}

// Tokenize splits text into lowercase keyword tokens: maximal runs of
// letters and digits. It is the single tokenizer used by indexing, scoring
// and the baselines, so term frequencies agree across pipelines. Callers on
// hot paths that only consume the tokens should prefer VisitTokens, which
// produces the same tokens without building the slice.
func Tokenize(text string) []string {
	var tokens []string
	VisitTokens(text, func(tok string) bool {
		tokens = append(tokens, tok)
		return true
	})
	return tokens
}

// VisitTokens streams the tokens of Tokenize(text) to fn in order; fn
// returns false to stop early. ASCII text — the overwhelmingly common case
// — is tokenized without allocating: tokens that are already lowercase are
// substrings of text, and only tokens containing uppercase letters are
// copied (to their lowered form). Text with any non-ASCII byte falls back
// to the generic Unicode-folding path, so the emitted tokens are identical
// to Tokenize's for every input.
func VisitTokens(text string, fn func(tok string) bool) {
	for i := 0; i < len(text); i++ {
		if text[i] >= 0x80 {
			for _, tok := range tokenizeUnicode(text) {
				if !fn(tok) {
					return
				}
			}
			return
		}
	}
	// ASCII: lowering maps only 'A'-'Z', so token boundaries (bytes outside
	// [A-Za-z0-9]) and the lowered forms are computable in place.
	start := -1
	hasUpper := false
	for i := 0; i <= len(text); i++ {
		var alnum, upper bool
		if i < len(text) {
			c := text[i]
			upper = c >= 'A' && c <= 'Z'
			alnum = upper || c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
		}
		switch {
		case alnum && start < 0:
			start, hasUpper = i, upper
		case alnum:
			hasUpper = hasUpper || upper
		case start >= 0:
			if !fn(lowerASCII(text[start:i], hasUpper)) {
				return
			}
			start = -1
		}
	}
}

// lowerASCII lowers an all-ASCII token, returning tok itself when it has no
// uppercase letters (the caller tracked that during the scan).
func lowerASCII(tok string, hasUpper bool) string {
	if !hasUpper {
		return tok
	}
	b := make([]byte, len(tok))
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

// tokenizeUnicode is the generic tokenizer for text containing non-ASCII
// bytes: Unicode-fold the whole text, then split. Kept verbatim as the
// semantics VisitTokens's ASCII fast path must reproduce.
func tokenizeUnicode(text string) []string {
	var tokens []string
	start := -1
	lower := strings.ToLower(text)
	for i, r := range lower {
		alnum := r >= 'a' && r <= 'z' || r >= '0' && r <= '9'
		if alnum && start < 0 {
			start = i
		}
		if !alnum && start >= 0 {
			tokens = append(tokens, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		tokens = append(tokens, lower[start:])
	}
	return tokens
}

// SubtreeTF counts occurrences of each query keyword in the text of n and
// its descendants (the paper's tf(e,k)). Keywords must be lowercase.
func SubtreeTF(n *Node, keywords []string) []int {
	tf := make([]int, len(keywords))
	count := func(tok string) bool {
		for i, k := range keywords {
			if tok == k {
				tf[i]++
			}
		}
		return true
	}
	n.Walk(func(x *Node) {
		if x.Value == "" {
			return
		}
		VisitTokens(x.Value, count)
	})
	return tf
}

// Contains reports whether the subtree rooted at n contains the lowercase
// keyword k in its text content (the paper's contains(u,k) predicate).
func Contains(n *Node, k string) bool {
	found := false
	match := func(tok string) bool {
		if tok == k {
			found = true
			return false
		}
		return true
	}
	n.Walk(func(x *Node) {
		if found || x.Value == "" {
			return
		}
		VisitTokens(x.Value, match)
	})
	return found
}

// Stats summarizes a document for diagnostics.
type Stats struct {
	Elements int
	Bytes    int
	MaxDepth int
}

// ComputeStats walks the document once and reports element count, byte
// length and maximum depth.
func (d *Document) ComputeStats() Stats {
	var s Stats
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Elements++
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 1)
	s.Bytes = d.Root.ByteLen
	return s
}
