package catalog

import (
	"fmt"
	"sync"
	"testing"

	"vxml/internal/xmltree"
)

func TestKeyCanonicalization(t *testing.T) {
	a := Key("view", []string{"XML", "search"}, IntPart(10), BoolPart(false))
	b := Key("view", []string{"search", " xml "}, IntPart(10), BoolPart(false))
	if a != b {
		t.Error("keys should be order- and case-insensitive over keywords")
	}
	c := Key("view", []string{"xml", "search"}, IntPart(5), BoolPart(false))
	if a == c {
		t.Error("different options must produce different keys")
	}
	d := Key("other view", []string{"xml", "search"}, IntPart(10), BoolPart(false))
	if a == d {
		t.Error("different views must produce different keys")
	}
}

// TestKeyCollisionResistance: keywords are arbitrary client input, so no
// content may collide with the encoding of a differently split query.
func TestKeyCollisionResistance(t *testing.T) {
	cases := [][2]struct {
		view string
		kws  []string
	}{
		{{"v", []string{"a\x01b"}}, {"v", []string{"a", "b"}}},
		{{"v", []string{"a\x00b"}}, {"v", []string{"a", "b"}}},
		{{"v", []string{"a", "b"}}, {"v", []string{"ab"}}},
		{{"va", []string{"b"}}, {"v", []string{"ab"}}},
		{{"v", []string{"a\x00", "b"}}, {"v", []string{"a", "\x00b"}}},
	}
	for i, c := range cases {
		a := Key(c[0].view, c[0].kws, IntPart(0))
		b := Key(c[1].view, c[1].kws, IntPart(0))
		if a == b {
			t.Errorf("case %d: %q/%q and %q/%q collide: %q", i, c[0].view, c[0].kws, c[1].view, c[1].kws, a)
		}
	}
}

// putNow inserts a small entry at the current generation — the pattern
// production code uses via PutAt when no computation spans the insert.
func putNow(c *Catalog, key string, v any) { c.PutAt(key, v, c.Gen(), 1) }

func TestGetPutAndLRUEviction(t *testing.T) {
	c := New()
	c.capacity = 2
	putNow(c, "a", 1)
	putNow(c, "b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	putNow(c, "c", 3) // evicts b (least recently used after the Get(a) touch)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived eviction")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("Entries = %d, want 2", st.Entries)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := New()
	c.capacity = 4
	putNow(c, "k", "v")
	c.Invalidate()
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry should be stale after Invalidate")
	}
	if c.Len() != 0 {
		t.Errorf("stale entry not removed on lookup: Len = %d", c.Len())
	}
	putNow(c, "k", "v2")
	if v, ok := c.Get("k"); !ok || v.(string) != "v2" {
		t.Errorf("re-inserted entry missing: %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Generation != 1 {
		t.Errorf("Invalidations = %d, Generation = %d", st.Invalidations, st.Generation)
	}
}

func TestPutAtDiscardsStaleGeneration(t *testing.T) {
	c := New()
	c.capacity = 4
	gen := c.Gen()
	c.Invalidate() // an ingest lands between the Gen read and the insert
	c.PutAt("k", "stale", gen, 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("PutAt inserted a value stamped with a stale generation")
	}
	gen = c.Gen()
	c.PutAt("k", "fresh", gen, 1)
	if v, ok := c.Get("k"); !ok || v.(string) != "fresh" {
		t.Errorf("current-generation PutAt missing: %v, %v", v, ok)
	}
}

func TestPutRefreshesExistingKey(t *testing.T) {
	c := New()
	c.capacity = 2
	putNow(c, "k", 1)
	putNow(c, "k", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("k"); v.(int) != 2 {
		t.Errorf("value = %v, want 2", v)
	}
}

// TestByteBound: resident bytes are bounded independently of entry count,
// and an oversized value is refused rather than evicting everything.
func TestByteBound(t *testing.T) {
	c := New()
	c.capacity = 1024
	c.maxBytes = 100
	c.PutAt("big", "x", c.Gen(), 101) // over the bound: refused
	if c.Len() != 0 {
		t.Fatal("oversized entry was inserted")
	}
	for i := 0; i < 5; i++ {
		c.PutAt(fmt.Sprintf("k%d", i), i, c.Gen(), 40)
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Errorf("resident bytes %d exceed bound 100", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("byte pressure produced no evictions")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (2x40 fits, 3x40 does not)", c.Len())
	}
	// Updating a key in place adjusts the byte account instead of leaking.
	c.PutAt("k4", 99, c.Gen(), 60)
	if st := c.Stats(); st.Bytes > 100 {
		t.Errorf("in-place update leaked bytes: %d", st.Bytes)
	}
	// Invalidate drops every entry and releases its bytes immediately.
	c.Invalidate()
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Errorf("Invalidate left residue: %d bytes, %d entries", st.Bytes, st.Entries)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	c := New()
	c.capacity = 32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%40)
				switch i % 5 {
				case 0:
					putNow(c, key, i)
				case 4:
					if g == 0 && i%100 == 4 {
						c.Invalidate()
					}
				default:
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("capacity exceeded: %d", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no lookups recorded")
	}
}

func TestRegisterStableIDs(t *testing.T) {
	c := New()
	a := c.Register("view a")
	b := c.Register("view b")
	if a == b {
		t.Fatalf("distinct views share ID %q", a)
	}
	if got := c.Register("view a"); got != a {
		t.Errorf("re-registration changed ID: %q -> %q", a, got)
	}
	if got := c.IDOf("view a"); got != a {
		t.Errorf("IDOf = %q, want %q", got, a)
	}
	if got := c.IDOf("never seen"); got != "" {
		t.Errorf("IDOf(unregistered) = %q, want empty", got)
	}
	if st := c.Stats(); st.Views != 2 {
		t.Errorf("Views = %d, want 2", st.Views)
	}
}

func TestSkeletonGenerationStamping(t *testing.T) {
	c := New()
	forest := []*xmltree.Node{{Tag: "r"}}
	gen := c.Gen()
	c.Invalidate() // a mutation lands mid-evaluation: the store must refuse
	c.StoreSkeleton("v", gen, forest, 10)
	if art, _, _ := c.Artifact("v"); art != nil {
		t.Fatal("stale-generation skeleton was stored")
	}
	gen = c.Gen()
	c.StoreSkeleton("v", gen, forest, 10)
	art, source, id := c.Artifact("v")
	if art == nil || len(art.Results) != 1 || source != PlanRewritten || id == "" {
		t.Fatalf("resident skeleton missing: art=%v source=%q id=%q", art, source, id)
	}
	if st := c.Stats(); st.Skeletons != 1 || st.ArtifactBytes != 10 {
		t.Errorf("Skeletons=%d ArtifactBytes=%d, want 1/10", st.Skeletons, st.ArtifactBytes)
	}
	c.Invalidate()
	if art, source, id := c.Artifact("v"); art != nil || source != PlanDirect || id == "" {
		t.Errorf("after invalidation: art=%v source=%q id=%q, want nil, direct and the view's ID", art, source, id)
	}
	if st := c.Stats(); st.ArtifactBytes != 0 {
		t.Errorf("invalidation leaked artifact bytes: %d", st.ArtifactBytes)
	}
	if _, source, id := c.Artifact("never seen"); source != PlanDirect || id != "" {
		t.Errorf("unregistered view: source=%q id=%q, want direct and no ID", source, id)
	}
}

func TestSkeletonBudgetRefusal(t *testing.T) {
	c := New()
	c.artMaxBytes = 100
	c.StoreSkeleton("a", c.Gen(), []*xmltree.Node{{Tag: "a"}}, 80)
	c.StoreSkeleton("b", c.Gen(), []*xmltree.Node{{Tag: "b"}}, 30) // would overflow
	if art, _, _ := c.Artifact("b"); art != nil {
		t.Error("over-budget skeleton was stored")
	}
	if art, _, _ := c.Artifact("a"); art == nil {
		t.Error("in-budget skeleton missing")
	}
}

// TestAccessPlannedCounters: Access registers the view and counts only
// rewrites as RewriteHits; every access heats the view, so registry
// eviction drops the coldest view first.
func TestAccessPlannedCounters(t *testing.T) {
	c := New()
	c.Access("v", PlanRewritten)
	c.Access("v", PlanDirect)
	c.Access("v", PlanRewritten)
	c.Access("w", PlanDirect)
	st := c.Stats()
	if st.RewriteHits != 2 || st.Views != 2 {
		t.Errorf("RewriteHits=%d Views=%d, want 2/2", st.RewriteHits, st.Views)
	}
	c.mu.Lock()
	c.evictColdestViewLocked()
	c.mu.Unlock()
	if c.IDOf("w") != "" || c.IDOf("v") == "" {
		t.Errorf("eviction kept w=%q and dropped v=%q, want the colder w dropped", c.IDOf("w"), c.IDOf("v"))
	}
}
