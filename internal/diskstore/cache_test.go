package diskstore

// The index cache admits by frequency: these tests drive indexCache with
// stand-in (nil) indices, through the same Get-then-Put-on-miss sequence
// StoredIndices makes, and compare it with a plain LRU of the same capacity
// where that is the point.

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"vxml/internal/pathindex"
)

// access is one StoredIndices call as the cache sees it: a Get and, on a
// miss, a Put of the indices just opened. It reports whether the Get hit.
func access(c *indexCache, name string) bool {
	if _, _, ok := c.Get(name, 1); ok {
		return true
	}
	c.Put(name, 1, nil, nil, 1)
	return false
}

// cached reports whether name is resident, counting no access.
func cached(c *indexCache, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[name]
	return ok
}

// plainLRU is the cache without its admission filter: every miss enters,
// evicting the least recently used entry.
type plainLRU struct {
	capacity int
	order    list.List
	at       map[string]*list.Element
}

func newPlainLRU(capacity int) *plainLRU {
	return &plainLRU{capacity: capacity, at: map[string]*list.Element{}}
}

func (l *plainLRU) access(name string) bool {
	if el, ok := l.at[name]; ok {
		l.order.MoveToFront(el)
		return true
	}
	l.at[name] = l.order.PushFront(name)
	if l.order.Len() > l.capacity {
		back := l.order.Back()
		l.order.Remove(back)
		delete(l.at, back.Value.(string))
	}
	return false
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%04d", prefix, i)
	}
	return out
}

// TestIndexCacheResistsScan: a hot set that fits survives one pass over ten
// capacities' worth of names seen once, which flushes an LRU of the same
// capacity completely; and the count table stays within two windows' names.
func TestIndexCacheResistsScan(t *testing.T) {
	const capacity = 64
	c, lru := newIndexCache(capacity), newPlainLRU(capacity)
	hot := names("hot", capacity/2)
	for range 4 {
		for _, name := range hot {
			access(c, name)
			lru.access(name)
		}
	}
	for _, name := range names("cold", indexCacheWindow*capacity) {
		access(c, name)
		lru.access(name)
	}
	for _, name := range hot {
		if !cached(c, name) {
			t.Errorf("the scan evicted hot %s", name)
		}
		if _, ok := lru.at[name]; ok {
			t.Fatalf("an LRU kept hot %s through the scan: the scan is too short to test anything", name)
		}
	}
	if c.refused.Load() == 0 {
		t.Error("the scan was admitted without a refusal")
	}
	if n := len(c.freq); n > 2*indexCacheWindow*capacity {
		t.Errorf("the count table holds %d names, more than two windows (%d)", n, 2*indexCacheWindow*capacity)
	}
}

// TestIndexCacheAdmitsNewHotSet: when popularity moves to a new set of
// names, the filter lets go of the old one: within two windows of the
// shift at least 90% of the new hot names are resident, whatever point of
// a window the shift falls on.
func TestIndexCacheAdmitsNewHotSet(t *testing.T) {
	const capacity = 64
	window := indexCacheWindow * capacity
	oldHot, newHot := names("old", 48), names("new", 48)
	for _, phase := range []int{0, window / 4, window / 2, 3 * window / 4, window - 1} {
		c := newIndexCache(capacity)
		for i := 0; i < 3*window+phase; i++ {
			access(c, oldHot[i%len(oldHot)])
		}
		for i := 0; i < 2*window; i++ {
			access(c, newHot[i%len(newHot)])
		}
		resident := 0
		for _, name := range newHot {
			if cached(c, name) {
				resident++
			}
		}
		if 10*resident < 9*len(newHot) {
			t.Errorf("shift %d accesses into a window: %d of %d new hot names resident two windows later", phase, resident, len(newHot))
		}
	}
}

// groupZipf is the disk_served shape: visits to 16 groups of 24 documents,
// group g getting a share of them proportional to 1/(g+1)^1.2, each visit
// looking up every document of its group. Each group's visits recur at an
// even stride, at a phase of its own, so the sequence is fixed and cold
// visits are spread between the hot ones rather than bunched.
func groupZipf(visits int) []string {
	const groups, perGroup = 16, 24
	type visit struct {
		at    float64
		group int
	}
	var sum float64
	for g := range groups {
		sum += math.Pow(float64(g+1), -1.2)
	}
	var order []visit
	for g := range groups {
		_, phase := math.Modf(float64(g+1) * 0.6180339887498949)
		q := int(math.Round(float64(visits) * math.Pow(float64(g+1), -1.2) / sum))
		for j := range q {
			order = append(order, visit{(float64(j) + phase) / float64(q), g})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].at < order[j].at })
	var seq []string
	for _, v := range order {
		for n := range perGroup {
			seq = append(seq, fmt.Sprintf("g%02d-%02d", v.group, n))
		}
	}
	return seq
}

// TestIndexCacheGroupZipf: on group-Zipf traffic over 384 documents at the
// default capacity of 256, the filter keeps the popular groups and reaches
// a hit fraction of at least 0.85, where a plain LRU, losing whole warm
// groups to each cold visit, stays at or below 0.76.
func TestIndexCacheGroupZipf(t *testing.T) {
	seq := groupZipf(3000)
	c, lru := newIndexCache(DefaultIndexCacheSize), newPlainLRU(DefaultIndexCacheSize)
	warm := len(seq) / 10
	var hits, lruHits int
	for i, name := range seq {
		hit, lruHit := access(c, name), lru.access(name)
		if i >= warm && hit {
			hits++
		}
		if i >= warm && lruHit {
			lruHits++
		}
	}
	frac, lruFrac := float64(hits)/float64(len(seq)-warm), float64(lruHits)/float64(len(seq)-warm)
	t.Logf("hit fraction %.3f with the filter, %.3f for a plain LRU", frac, lruFrac)
	if frac < 0.85 {
		t.Errorf("hit fraction %.3f with the filter, want >= 0.85", frac)
	}
	if lruFrac > 0.76 {
		t.Errorf("a plain LRU hits %.3f, want <= 0.76: the sequence does not test admission", lruFrac)
	}
}

// TestIndexCacheConcurrentUse hammers Get, Put and Drop over overlapping
// names from several goroutines (run it under -race), then checks that the
// cache's structures still agree and its bounds hold.
func TestIndexCacheConcurrentUse(t *testing.T) {
	const capacity, workers, ops = 16, 8, 4000
	c := newIndexCache(capacity)
	pool := names("doc", 4*capacity)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for range ops {
				name := pool[int(float64(len(pool))*r.Float64()*r.Float64())]
				switch k := r.Intn(20); {
				case k == 0:
					c.Drop(name)
				case k == 1:
					c.Put(name, 2, nil, nil, 1) // a replace
				default:
					access(c, name)
				}
			}
		}()
	}
	wg.Wait()
	if len(c.entries) != c.lru.Len() || c.lru.Len() > capacity {
		t.Fatalf("%d entries in the map, %d in the LRU, capacity %d", len(c.entries), c.lru.Len(), capacity)
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*idxEntry); c.entries[e.name] != el {
			t.Fatalf("LRU entry %s is not the map's", e.name)
		}
	}
	if n := len(c.freq); n > 2*indexCacheWindow*capacity {
		t.Errorf("the count table holds %d names, more than two windows", n)
	}
}

// TestRefusedIndexProbesAreCounted: indices the cache refuses still serve
// the search that opened them, and what they serve moves IndexProbes by
// exactly that much.
func TestRefusedIndexProbesAreCounted(t *testing.T) {
	ds, err := Init(t.TempDir(), 2, Options{IndexCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close() //nolint:errcheck
	for i, name := range []string{"hot.xml", "cold.xml"} {
		if err := ds.RegisterParsed(servedDoc(t, name, int32(i+1), 6, 45)); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		if _, _, err := ds.StoredIndices("hot.xml"); err != nil {
			t.Fatal(err)
		}
	}
	refused := ds.DiskStats().IndexCache.Refused
	pix, iix, err := ds.StoredIndices("cold.xml")
	if err != nil {
		t.Fatal(err)
	}
	if st := ds.DiskStats().IndexCache; st.Refused != refused+1 || st.Entries != 1 || !cached(ds.idxCache, "hot.xml") {
		t.Fatalf("the cold document's indices were not refused: %+v", st)
	}
	p0, l0 := ds.IndexProbes()
	wantProbes := 0
	for _, steps := range [][]pathindex.Step{bdySteps, yrSteps, auSteps} {
		wantProbes += len(pix.MatchFullPaths(steps))
		if len(pix.LookupPath(steps, nil)) == 0 {
			t.Fatalf("the refused path index answers nothing for %v", steps)
		}
	}
	for _, kw := range []string{"copper", "quartz", "nosuchword"} {
		iix.Lookup(kw)
	}
	p1, l1 := ds.IndexProbes()
	if p1-p0 != wantProbes || l1-l0 != 3 {
		t.Fatalf("the refused indices served %d probes and 3 lookups; IndexProbes moved by %d and %d", wantProbes, p1-p0, l1-l0)
	}
}
