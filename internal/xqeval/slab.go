package xqeval

import "vxml/internal/xmltree"

// Slab is memory for the elements an evaluator constructs (SetSlab): each
// element's node and its Children slice are carved from fixed-size chunks,
// which never move, so a pointer into the slab stays valid until Rewind.
// Chunks are kept across rewinds, so a reused slab constructs without
// allocating until it needs more chunks than it ever had. A Slab is not
// safe for concurrent use.
type Slab struct {
	nodes [][]xmltree.Node
	kids  [][]*xmltree.Node
	// n and k are the chunks of nodes and of kids being carved from; every
	// chunk after them is empty.
	n, k int
}

const (
	slabNodes = 256  // nodes per node chunk
	slabKids  = 1024 // child pointers per kid chunk
)

// element returns a new element tagged tag whose Children is an empty
// slice with room for kids children (nil when kids is 0), carved from s,
// or allocated on the heap when s is nil. A Children slice longer than a
// chunk is allocated on the heap too.
func (s *Slab) element(tag string, kids int) *xmltree.Node {
	if s == nil {
		n := xmltree.NewElement(tag)
		if kids > 0 {
			n.Children = make([]*xmltree.Node, 0, kids)
		}
		return n
	}
	s.n = carve(&s.nodes, s.n, 1, slabNodes)
	c := &s.nodes[s.n]
	*c = append(*c, xmltree.Node{Tag: tag})
	n := &(*c)[len(*c)-1]
	switch {
	case kids > slabKids:
		n.Children = make([]*xmltree.Node, 0, kids)
	case kids > 0:
		s.k = carve(&s.kids, s.k, kids, slabKids)
		c := s.kids[s.k]
		s.kids[s.k] = c[:len(c)+kids]
		n.Children = c[len(c) : len(c) : len(c)+kids]
	}
	return n
}

// carve returns the first chunk from at on with room for want more
// elements, appending a chunk of size elements to chunks when none has.
func carve[T any](chunks *[][]T, at, want, size int) int {
	for ; at < len(*chunks); at++ {
		if c := (*chunks)[at]; cap(c)-len(c) >= want {
			return at
		}
	}
	*chunks = append(*chunks, make([]T, 0, size))
	return len(*chunks) - 1
}

// Rewind empties the slab for reuse, keeping its chunks. The elements it
// held read as zero nodes afterwards, and the slab keeps nothing they
// pointed to alive.
func (s *Slab) Rewind() {
	empty(s.nodes[:min(s.n+1, len(s.nodes))])
	empty(s.kids[:min(s.k+1, len(s.kids))])
	s.n, s.k = 0, 0
}

// empty zeroes and empties every chunk.
func empty[T any](chunks [][]T) {
	for i, c := range chunks {
		clear(c)
		chunks[i] = c[:0]
	}
}

// Cap is the larger of the numbers of nodes and of child pointers the slab
// holds without growing: it retains at most Cap nodes and as many child
// pointers.
func (s *Slab) Cap() int {
	return max(len(s.nodes)*slabNodes, len(s.kids)*slabKids)
}
