package main

// The four workloads. Each is a pure function of (seed, scale): generated
// documents, view texts, one fixed batch of ops (the "round") that the
// timed phase repeats until its time is up, and a post-run write phase.
// Repeating one batch keeps the op mix identical in every round and on
// every commit, whatever the speed of the code under test; all shares in
// a batch are exact quotas, then shuffled by the seed, so two seeds differ
// in content and order but not in mix.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"

	"vxml"
)

type opKind uint8

const (
	opSearch opKind = iota
	opReplace
)

// op is one operation of a workload's stream.
type op struct {
	kind opKind
	// Search: index into workload.views, keywords, top-K.
	view int
	kws  []string
	k    int
	// Replace: document name and its new content.
	doc string
	xml string
}

type viewDef struct{ name, text string }

type workload struct {
	name  string
	seed  int64
	scale float64
	docs  []doc
	views []viewDef
	// round is the op batch the timed phase repeats. Only planned_churn
	// has Replace ops in it.
	round []op
	// segments is how many equal stretches a round is cut into; the host
	// clock is read between them (calib.go). A stretch takes 0.2-0.5 s.
	segments int
	// churnDocs are the documents the post-run write phase replaces, and
	// regen builds a re-seeded, same-shape replacement for one of them.
	churnDocs []string
	regen     func(name string, seed int64) string
	replaces  int // ops in the write phase
	setups    int // set-up repetitions setup_s is the median of
	warmup    int // searches run as the last step of set-up
	shards    int // vxml.OpenShards argument
	disk      bool
	served    bool
	clients   int
	search    vxml.Options // Parallelism and Cache of every search
	// inputBytes is the raw XML size of docs.
	inputBytes int
	sum        hash.Hash
}

var workloadNames = []string{"direct_join", "collection_fanout", "planned_churn", "disk_served"}

// defaultSeed is the seed whose input fingerprints are pinned below
// (2007-09-23: the paper's VLDB).
const defaultSeed = 20070923

// pinnedInputs are the input_sha256 values at defaultSeed and scale 1. A
// run at that seed whose inputs hash differently aborts: parent and change
// would not be measuring the same thing. (BENCHMARK.json admits no key for
// them, so they are pinned here.)
var pinnedInputs = map[string]string{
	"direct_join":       "09b1c2af8ad1af9c26bbe204631916017b0e49e20b874bbb2422c937487c8b73",
	"collection_fanout": "45938092d9d9fea3763ecdcd3dc39a2901c5870d08b08b8f6aa3c1a5f1ebc779",
	"planned_churn":     "3eb3358591945035158e1aea33cfbb8df7f718ec099840b77f9fa2fd586d3033",
	"disk_served":       "159320cf9d1dffeb0f04a2dd6a2b5e5cf2b6f26ba55fdc237951976ffea7dcdb",
}

// mix derives an independent generator seed from the workload seed.
func mix(seed int64, stream, i int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1) + 0xbf58476d1ce4e5b9*uint64(i+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// scaled shrinks a size for smoke runs, never below min.
func scaled(n int, scale float64, min int) int {
	return max(min, int(math.Round(float64(n)*scale)))
}

// zipfQuota splits total draws over n ranks in proportion to 1/rank^s,
// by largest remainder, so the shares are exact rather than sampled.
func zipfQuota(n int, s float64, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	quota := make([]int, n)
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, n)
	given := 0
	for i := range w {
		exact := float64(total) * w[i] / sum
		quota[i] = int(exact)
		given += quota[i]
		rems[i] = rem{i, exact - float64(quota[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].f > rems[b].f })
	for j := 0; given < total; j, given = j+1, given+1 {
		quota[rems[j%n].i]++
	}
	return quota
}

// interleave lays quota[i] copies of each rank i out over one sequence so
// that every rank recurs at an even stride (rank i's copies sit 1/quota[i]
// apart, each rank at its own golden-ratio phase). Workloads whose cost
// depends on cache state use it in place of a seeded shuffle: the order
// decides what the caches hold, and a schedule that is the same for every
// seed keeps that part of the workload fixed while the content varies.
func interleave(quota []int) []int {
	type slot struct {
		at   float64
		rank int
	}
	var slots []slot
	for rank, q := range quota {
		_, phase := math.Modf(float64(rank+1) * 0.6180339887498949)
		for j := 0; j < q; j++ {
			slots = append(slots, slot{(float64(j) + phase) / float64(q), rank})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.rank
	}
	return out
}

// pick returns n distinct words of pool.
func pick(r *rand.Rand, pool []string, n int) []string {
	out := make([]string, 0, n)
	for _, i := range r.Perm(len(pool))[:n] {
		out = append(out, pool[i])
	}
	return out
}

func buildWorkload(name string, seed int64, scale float64) (*workload, error) {
	w := &workload{name: name, seed: seed, scale: scale, clients: 1, setups: 5, sum: sha256.New()}
	switch name {
	case "direct_join":
		buildDirectJoin(w)
	case "collection_fanout":
		buildCollectionFanout(w)
	case "planned_churn":
		buildPlannedChurn(w)
	case "disk_served":
		buildDiskServed(w)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	for _, d := range w.docs {
		w.inputBytes += len(d.xml)
		w.hashStrings(d.name, d.xml)
	}
	for _, v := range w.views {
		w.hashStrings(v.name, v.text)
	}
	w.hashOps(w.round)
	w.hashOps(w.churnOps())
	if want := pinnedInputs[name]; want != "" && seed == defaultSeed && scale == 1 && w.fingerprint() != want {
		return nil, fmt.Errorf("%s: input_sha256 %s differs from the pinned %s: the generators changed, so this run is not comparable with earlier ones",
			name, w.fingerprint(), want)
	}
	return w, nil
}

func (w *workload) hashStrings(ss ...string) {
	var n [8]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		w.sum.Write(n[:])
		w.sum.Write([]byte(s))
	}
}

func (w *workload) hashOps(ops []op) {
	for _, o := range ops {
		w.hashStrings(fmt.Sprint(o.kind, o.view, o.k, len(o.kws)), o.doc, o.xml)
		w.hashStrings(o.kws...)
	}
}

// churnOps generates the post-run write phase: w.replaces Replace ops over
// the churn documents, with re-seeded content of the same shape. It is
// generated once for the fingerprint and again when the write phase
// starts, so that the replacement texts are not resident while
// heap_live_mb is taken.
func (w *workload) churnOps() []op {
	r := rand.New(rand.NewSource(mix(w.seed, 90, 0)))
	ops := make([]op, w.replaces)
	for i := range ops {
		name := w.churnDocs[r.Intn(len(w.churnDocs))]
		ops[i] = op{kind: opReplace, doc: name, xml: w.regen(name, mix(w.seed, 91, i))}
	}
	return ops
}

// fingerprint is the SHA-256 over documents, views, the round and the
// write phase.
func (w *workload) fingerprint() string { return hex.EncodeToString(w.sum.Sum(nil)) }

// buildDirectJoin is the paper's Table-1 default point: few large
// documents, big PDTs, value joins.
func buildDirectJoin(w *workload) {
	target := scaled(5*128<<10, w.scale, 8<<10)
	w.docs = inexCorpus(mix(w.seed, 1, 0), target)
	w.views = []viewDef{{"join1", viewJoin1}, {"selection", viewSelection}, {"nest3", viewNest3}, {"join4", viewJoin4}}
	w.search = vxml.Options{Parallelism: 1}
	w.warmup = scaled(32, w.scale, 4)
	w.replaces = scaled(200, w.scale, 4)
	sz := inexSizesFor(target)
	w.churnDocs = []string{"authors.xml"}
	w.regen = func(_ string, seed int64) string { return authorsXML(seed, sz) }

	// Half the ops use the default view; the rest split evenly. Within a
	// view every (keyword count, K) pair occurs equally often. The keyword
	// sets are part of the mix, like the shares: their selectivities span
	// three orders of magnitude, so they are drawn from a source that is
	// the same for every seed (seeded draws spread alloc_kb_per_search by
	// 5% across seeds). The seed varies the documents and the order.
	sets := rand.New(rand.NewSource(2))
	pool := append(append(append([]string{}, lowMarkers...), mediumMarkers...), highMarkers...)
	for view, reps := range []int{9, 3, 3, 3} {
		for rep := 0; rep < reps; rep++ {
			for nkw := 1; nkw <= 5; nkw++ {
				for _, k := range []int{1, 10, 40} {
					w.round = append(w.round, op{view: view, kws: pick(sets, pool, nkw), k: k})
				}
			}
		}
	}
	r := rand.New(rand.NewSource(mix(w.seed, 2, 0)))
	r.Shuffle(len(w.round), func(i, j int) { w.round[i], w.round[j] = w.round[j], w.round[i] })
	w.round = w.round[:scaled(len(w.round), w.scale, 12)]
	w.segments = 9
}

func partName(i int) string { return fmt.Sprintf("part-%03d", i) }

// addParts appends n part documents and returns the regen function for
// them.
func addParts(w *workload, n, articles int) {
	index := map[string]int{}
	for i := 0; i < n; i++ {
		index[partName(i)] = i
		w.docs = append(w.docs, doc{partName(i), partXML(mix(w.seed, 3, i), i, articles)})
		w.churnDocs = append(w.churnDocs, partName(i))
	}
	w.regen = func(name string, seed int64) string { return partXML(seed, index[name], articles) }
}

// keywordPair draws two distinct keywords, each frequent (a mineral) or
// infrequent (a vocabulary word) as asked.
func keywordPair(r *rand.Rand, frequentA, frequentB bool) []string {
	draw := func(frequent bool) string {
		if frequent {
			return minerals[r.Intn(len(minerals))]
		}
		return vocabulary[r.Intn(len(vocabulary))]
	}
	a, b := draw(frequentA), draw(frequentB)
	for b == a {
		b = draw(frequentB)
	}
	return []string{a, b}
}

// buildCollectionFanout is many small documents behind one collection
// view: per-candidate overhead, planning, the worker pool and the top-k
// merge dominate.
func buildCollectionFanout(w *workload) {
	addParts(w, scaled(240, w.scale, 8), 8)
	w.views = []viewDef{{"parts", `
for $a in fn:collection("part-*")/books//article
where $a/fm/yr > 1990
return $a`}}
	w.shards = 4
	w.search = vxml.Options{Parallelism: 0}
	w.warmup = scaled(64, w.scale, 4)
	w.replaces = scaled(200, w.scale, 4)
	r := rand.New(rand.NewSource(mix(w.seed, 4, 0)))
	for i, n := 0, scaled(300, w.scale, 12); i < n; i++ {
		w.round = append(w.round, op{kws: keywordPair(r, i%3 < 2, i%3 < 1), k: 10})
	}
	r.Shuffle(len(w.round), func(i, j int) { w.round[i], w.round[j] = w.round[j], w.round[i] })
	w.segments = 6
}

// Tuning of planned_churn, fixed once on the seed commit (see README.md):
// the key pool is four times the catalog's 128-entry exact cache, and a
// Replace every churnEvery ops invalidates the catalog.
const (
	churnPool     = 512
	churnZipf     = 1.1
	churnEvery    = 40
	churnRoundOps = 2000
)

// buildPlannedChurn is repeat traffic over named views with a write every
// churnEvery ops: the catalog tiers and their invalidation do the work.
func buildPlannedChurn(w *workload) {
	addParts(w, scaled(64, w.scale, 8), 8)
	books, reviews := booksReviewsXML(mix(w.seed, 5, 0), scaled(400, w.scale, 20))
	w.docs = append(w.docs, doc{"books.xml", books}, doc{"reviews.xml", reviews})
	const bookrevs = `
for $book in fn:doc(books.xml)/books//book
where $book/year %s
return <bookrevs><book>{$book/title}</book>,
  {for $rev in fn:doc(reviews.xml)/reviews//review
   where $rev/isbn = $book/isbn
   return $rev/content}</bookrevs>`
	w.views = []viewDef{
		{"parts-recent", `for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1990 return $a`},
		{"parts-new", `for $a in fn:collection("part-*")/books//article where $a/fm/yr > 1995 return <hit>{$a/fm/tl}, {$a/bdy}</hit>`},
		{"parts-old", `for $a in fn:collection("part-*")/books//article where $a/fm/yr < 1992 return <old>{$a/fm/tl}, {$a/bdy}</old>`},
		{"parts-all", `for $a in fn:collection("part-*")/books//article return <any>{$a/fm/au}, {$a/bdy}</any>`},
		{"bookrevs-new", fmt.Sprintf(bookrevs, "> 1995")},
		{"bookrevs-old", fmt.Sprintf(bookrevs, "< 2000")},
		{"reviews-good", `for $rev in fn:doc(reviews.xml)/reviews//review where $rev/rate > 2 return $rev`},
		{"books", `for $book in fn:doc(books.xml)/books//book return $book`},
	}
	w.search = vxml.Options{Parallelism: 1, Cache: true}
	w.segments = 8
	w.warmup = scaled(400, w.scale, 8)
	w.replaces = scaled(200, w.scale, 4)

	// The key pool: (view, two keywords, K). Part views draw keywords from
	// the part vocabulary, book views from the sentence vocabulary's head
	// and the frequent markers. K = 0 entries are what the window rewrite
	// slices from.
	r := rand.New(rand.NewSource(mix(w.seed, 6, 0)))
	bookWords := append(append([]string{}, vocabulary[:34]...), lowMarkers...)
	pool := make([]op, scaled(churnPool, w.scale, 16))
	for i := range pool {
		view := i % len(w.views)
		kws := keywordPair(r, true, i%2 == 0)
		if view >= 4 {
			kws = pick(r, bookWords, 2)
		}
		pool[i] = op{view: view, kws: kws, k: []int{10, 0, 5}[(i/len(w.views))%3]}
	}
	n := scaled(churnRoundOps, w.scale, 2*churnEvery)
	searches := n - n/churnEvery
	draws := interleave(zipfQuota(len(pool), churnZipf, searches))
	parts := len(w.churnDocs)
	for i := 0; len(w.round) < n; i++ {
		if len(w.round)%churnEvery == churnEvery-1 {
			name := partName(r.Intn(parts))
			w.round = append(w.round, op{kind: opReplace, doc: name, xml: w.regen(name, mix(w.seed, 7, i))})
			continue
		}
		w.round = append(w.round, pool[draws[0]])
		draws = draws[1:]
	}
}

func groupDocName(g, n int) string { return fmt.Sprintf("g%02d-%02d", g, n) }

// buildDiskServed is a disk-resident corpus larger than the store's own
// caches, with a hot head, served over loopback HTTP.
func buildDiskServed(w *workload) {
	const groups = 16
	perGroup := scaled(24, w.scale, 2)
	articles := scaled(38, w.scale, 4)
	index := map[string]int{}
	for g := 0; g < groups; g++ {
		for n := 0; n < perGroup; n++ {
			name := groupDocName(g, n)
			index[name] = g*perGroup + n
			w.docs = append(w.docs, doc{name, partXML(mix(w.seed, 8, index[name]), index[name], articles)})
			w.churnDocs = append(w.churnDocs, name)
		}
		w.views = append(w.views, viewDef{fmt.Sprintf("group-%02d", g), fmt.Sprintf(`
for $a in fn:collection("g%02d-*")/books//article
where $a/fm/yr > 1990
return <hit>{$a/fm/tl}, {$a/bdy}</hit>`, g)})
	}
	w.regen = func(name string, seed int64) string { return partXML(seed, index[name], articles) }
	w.disk, w.served, w.clients = true, true, 2
	w.setups = 3 // one set-up costs seconds here
	w.segments = 5
	w.search = vxml.Options{Parallelism: 1}
	w.warmup = scaled(96, w.scale, 4)
	w.replaces = scaled(200, w.scale, 4)
	r := rand.New(rand.NewSource(mix(w.seed, 9, 0)))
	// Zipf(1.2), not the issue's 1.0: at 1.0 the latency distribution has
	// its gap between cached and uncached groups right at the median
	// (q45 = 5.9 ms, q55 = 9.8 ms) and search_p50_ms spread 10% over ten
	// seeds; at 1.2 the median sits lower on the cached side (7%).
	for i, g := range interleave(zipfQuota(groups, 1.2, scaled(320, w.scale, 16))) {
		w.round = append(w.round, op{view: g, kws: keywordPair(r, true, i%2 == 0), k: 20})
	}
}
