// Package dewey implements Dewey IDs, the hierarchical element numbering
// scheme used throughout the system to identify XML elements (paper §3.2,
// Figure 4a). The ID of an element contains the ID of its parent element as
// a prefix, so document order is exactly lexicographic order on components,
// and ancestor/descendant tests are prefix tests.
package dewey

import (
	"fmt"
	"strconv"
	"strings"
)

// ID is a Dewey ID: the sequence of sibling ordinals from the document root
// (inclusive) down to an element. The empty ID is the "virtual root" above
// all documents; it is an ancestor of every other ID.
type ID []int32

// Parse converts the textual form "1.2.3" into an ID.
func Parse(s string) (ID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ".")
	id := make(ID, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dewey: invalid component %q in %q", p, s)
		}
		id[i] = int32(n)
	}
	return id, nil
}

// MustParse is Parse for tests and examples; it panics on malformed input.
func MustParse(s string) ID {
	id, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the ID in the dotted form used by the paper, e.g. "1.2.3".
func (id ID) String() string {
	if len(id) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range id {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatInt(int64(c), 10))
	}
	return b.String()
}

// Depth is the number of components. The virtual root has depth 0; a
// document root element has depth 1.
func (id ID) Depth() int { return len(id) }

// Compare orders IDs in document order: ancestors sort before descendants,
// and siblings sort by ordinal. It returns -1, 0 or +1.
func Compare(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Less reports whether a precedes b in document order.
func Less(a, b ID) bool { return Compare(a, b) < 0 }

// Equal reports whether the two IDs are identical.
func Equal(a, b ID) bool { return Compare(a, b) == 0 }

// Parent returns the ID of the parent element, or nil for a depth-1 ID.
func (id ID) Parent() ID {
	if len(id) == 0 {
		return nil
	}
	return id[:len(id)-1]
}

// Child returns the ID of the ord-th child of id.
func (id ID) Child(ord int32) ID {
	c := make(ID, len(id)+1)
	copy(c, id)
	c[len(id)] = ord
	return c
}

// Clone returns a copy of id that does not share backing storage.
func (id ID) Clone() ID {
	if id == nil {
		return nil
	}
	c := make(ID, len(id))
	copy(c, id)
	return c
}

// IsAncestorOf reports whether a is a strict ancestor of b, i.e. a proper
// prefix of b.
func (a ID) IsAncestorOf(b ID) bool {
	if len(a) >= len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsParentOf reports whether a is the parent of b.
func (a ID) IsParentOf(b ID) bool {
	return len(a)+1 == len(b) && a.IsAncestorOf(b)
}

// HasPrefix reports whether p is a (possibly equal) prefix of id.
func (id ID) HasPrefix(p ID) bool {
	return Equal(id[:min(len(id), len(p))], p) && len(p) <= len(id)
}

// Successor returns the smallest ID in document order that is strictly
// greater than id and every descendant of id. Probing a sorted ID list for
// the range [id, id.Successor()) yields exactly id's subtree.
func (id ID) Successor() ID {
	s := id.Clone()
	if len(s) == 0 {
		return ID{1 << 30}
	}
	s[len(s)-1]++
	return s
}

// CompareToSuccessor compares a against id.Successor() in document order
// without materializing the successor — the subtree-range probes of the
// inverted index run once per candidate element per keyword, and the
// successor clone was their only allocation.
func CompareToSuccessor(a, id ID) int {
	if len(id) == 0 {
		// Successor of the virtual root is ID{1 << 30}.
		if len(a) == 0 {
			return -1
		}
		switch {
		case a[0] < 1<<30:
			return -1
		case a[0] > 1<<30:
			return 1
		}
		if len(a) == 1 {
			return 0
		}
		return 1
	}
	n := min(len(a), len(id))
	for i := 0; i < n; i++ {
		want := id[i]
		if i == len(id)-1 {
			want++ // the successor's bumped last component
		}
		switch {
		case a[i] < want:
			return -1
		case a[i] > want:
			return 1
		}
	}
	switch {
	case len(a) < len(id):
		return -1
	case len(a) > len(id):
		return 1
	}
	return 0
}

// CommonPrefixLen returns the length of the longest common prefix of a and b.
func CommonPrefixLen(a, b ID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
