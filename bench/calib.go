package main

// Host-normalised time. The sandbox's speed on memory-heavy code moves by
// itself, by ±25% over seconds to minutes (a pure-arithmetic loop stays
// within ±3% meanwhile, so it is the shared cache and memory, not the
// core), which is more than any bound this benchmark could hold a change
// to. So every timing metric is read on a clock that the host's speed
// cancels out of: a fixed kernel of the benchmark's own runs at every
// segment boundary of the measured work, and a segment's wall time is
// divided by how much slower than nominal the kernel ran around it.
// Measured over 20 s windows on the seed commit, the kernel's time follows
// direct_join's with slope 0.99 and correlation 0.96, and dividing by it
// took the spread of the windows from 17% to 4%.

import (
	"sort"
	"time"
)

// calibNode is a heap node of the calibration kernel's tree.
type calibNode struct {
	tag      string
	hash     uint32
	children []*calibNode
}

var calibSink uint32

// calibKernel is the fixed piece of work. It calls nothing of the library
// under test, so no later change can move it, and it does what the
// workloads do: it builds a tree of small heap nodes out of a byte stream
// (~0.7 MB allocated, which the collector then has to trace and free),
// hashes strings into a map, sorts, and walks the tree.
func calibKernel() {
	const nodes = 6000
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	root := &calibNode{tag: "root"}
	stack := []*calibNode{root}
	seen := make(map[uint32]int, 256)
	var buf [12]byte
	for i := 0; i < nodes; i++ {
		r := next()
		for j := range buf {
			buf[j] = 'a' + byte((r>>(uint(j)%28))&15)
		}
		n := &calibNode{tag: string(buf[:4+r%8])}
		h := uint32(2166136261)
		for k := 0; k < len(n.tag); k++ {
			h = (h ^ uint32(n.tag[k])) * 16777619
		}
		n.hash = h
		seen[h&1023]++
		top := stack[len(stack)-1]
		top.children = append(top.children, n)
		switch r % 4 {
		case 0:
			if len(stack) < 12 {
				stack = append(stack, n)
			}
		case 1:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	keys := make([]int, 0, len(seen))
	for k, c := range seen {
		keys = append(keys, int(k)<<8|c&255)
	}
	sort.Ints(keys)
	var walk func(n *calibNode) uint32
	walk = func(n *calibNode) uint32 {
		s := n.hash
		for _, c := range n.children {
			s = s*31 + walk(c)
		}
		return s
	}
	calibSink += walk(root) + uint32(keys[0])
}

const (
	// calibReps is how often the kernel runs at one boundary.
	calibReps = 10
	// calibNominal is one kernel run on this sandbox in a quiet minute. It
	// is only a scale: it makes a normalised millisecond read like a real
	// one there.
	calibNominal = time.Millisecond
)

// hostClock reads the host's speed at boundaries of the measured work.
type hostClock struct {
	last float64 // kernel runs per nominal run at the latest boundary
	// sum and n are over every factor handed out: their mean is printed
	// with a run, so a normalised value can be turned back into the raw one.
	sum float64
	n   int
	// kernelAlloc is what one boundary allocates, for the callers that
	// meter allocation across boundaries.
	kernelAlloc uint64
}

// newHostClock warms the kernel up and meters its allocation. Nothing else
// may be allocating meanwhile.
func newHostClock() *hostClock {
	h := &hostClock{}
	h.mark()
	a0 := totalAlloc()
	h.mark()
	h.kernelAlloc = totalAlloc() - a0
	return h
}

// mark runs the kernel and opens an interval of measured work.
func (h *hostClock) mark() {
	t0 := time.Now()
	for i := 0; i < calibReps; i++ {
		calibKernel()
	}
	h.last = float64(time.Since(t0)) / float64(calibReps*calibNominal)
}

// factor closes the interval the last boundary opened and opens the next:
// it returns how much slower than nominal the host ran over the interval,
// the mean of the kernel's readings at its two ends. Wall time taken inside
// the interval, divided by it, is host-normalised time.
func (h *hostClock) factor() float64 {
	before := h.last
	h.mark()
	f := (before + h.last) / 2
	h.sum += f
	h.n++
	return f
}

// mean is the mean factor handed out so far.
func (h *hostClock) mean() float64 { return h.sum / float64(max(h.n, 1)) }
