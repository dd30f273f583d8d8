// Package catalog is the view catalog and query-planning substrate: it
// owns the bounded LRU cache of ranked query results, a registry of
// compiled views with per-view hit statistics, and one cached skeleton per
// view that the planner rewrites against.
//
// The cache tiers, weakest to strongest:
//
//   - Exact result entries (Get/PutAt): memoize one (view, keywords,
//     options) triple. Any variation misses.
//   - Skeletons (StoreSkeleton): the view's evaluated result forest with
//     PDT provenance but before scoring. The skeleton is
//     keyword-independent — term frequencies live in the inverted indices,
//     not the skeleton — so one skeleton answers any keyword query over
//     the view (keyword supersets, disjoint sets, either semantics) by
//     re-probing the indices. core.Engine's planner serves this tier; the
//     winners are then materialized from base data like any direct
//     search's, so views stay virtual.
//
// Every tier is generation-stamped: any corpus mutation bumps the
// generation and drops all entries and skeletons (Invalidate), and stores
// stamped with a pre-bump generation are refused, so every resident
// artifact is current. A planned answer is therefore always computed
// against the same corpus snapshot a direct evaluation would see, which is
// what keeps planned output byte-identical to direct output.
package catalog

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vxml/internal/xmltree"
)

// NormalizeKeyword canonicalizes one query keyword the way every pipeline
// matches it (core.NormalizeKeyword delegates here; the definition lives in
// this package so cache keys cannot drift from the matching rule).
func NormalizeKeyword(k string) string { return strings.ToLower(strings.TrimSpace(k)) }

// Key builds the canonical cache key for a query: the view definition text,
// the sorted normalized keyword set, and every option that can change the
// response (top-k, semantics, pipeline). Keywords arrive from arbitrary
// client input (e.g. JSON over HTTP), so every component is length-prefixed
// — no keyword content can collide with a separator or with a differently
// split keyword list.
func Key(viewText string, keywords []string, parts ...string) string {
	kws := make([]string, len(keywords))
	for i, k := range keywords {
		kws[i] = NormalizeKeyword(k)
	}
	sort.Strings(kws)
	var b strings.Builder
	writePart := func(p string) {
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
	}
	writePart(viewText)
	writePart(strconv.Itoa(len(kws)))
	for _, k := range kws {
		writePart(k)
	}
	for _, p := range parts {
		writePart(p)
	}
	return b.String()
}

// BoolPart canonicalizes a boolean option for use as a Key part.
func BoolPart(v bool) string { return strconv.FormatBool(v) }

// IntPart canonicalizes an integer option for use as a Key part.
func IntPart(v int) string { return strconv.Itoa(v) }

// Plan sources, reported through Stats and the HTTP stats wire: how a
// search's answer was produced.
const (
	// PlanDirect: full pipeline (PDT generation, evaluation, scoring).
	PlanDirect = "direct"
	// PlanCacheHit: served from an exact result-cache entry.
	PlanCacheHit = "cache_hit"
	// PlanRewritten: rewritten against a compiled view's cached artifact —
	// re-scored from a skeleton, or a TopK window sliced from a cached
	// unranked entry.
	PlanRewritten = "rewritten"
	// PlanMaterialized is never reported; only bench/ reads it (ROADMAP item 3 step A).
	PlanMaterialized = "materialized"
)

// Stats is a point-in-time snapshot of catalog effectiveness counters, in
// two blocks: the exact-entry result cache and the view registry with its
// planner tiers. Both are embedded, so their fields read as Stats fields;
// the JSON encoding (GET /v1/stats) keeps them as the "cache" and
// "catalog" objects.
type Stats struct {
	CacheStats   `json:"cache"`
	PlannerStats `json:"catalog"`
}

// CacheStats counts the exact-entry LRU of query results.
type CacheStats struct {
	Hits          int `json:"hits"`          // lookups answered from an exact cache entry
	Misses        int `json:"misses"`        // lookups that fell through
	Evictions     int `json:"evictions"`     // entries dropped by the LRU or byte bound
	Invalidations int `json:"invalidations"` // generation bumps (corpus mutations)
	Entries       int `json:"entries"`       // entries currently resident
	Capacity      int `json:"capacity"`      // maximum resident entries
	Bytes         int `json:"bytes"`         // caller-reported bytes currently resident
	MaxBytes      int `json:"max_bytes"`     // maximum resident bytes
	Generation    int `json:"generation"`    // current store generation
}

// PlannerStats describes the view registry, the resident skeletons and
// their byte footprint against the budget, and how often the rewrite tier
// served.
type PlannerStats struct {
	Views            int `json:"views"`              // compiled views tracked by the registry
	Skeletons        int `json:"skeletons"`          // resident artifacts (each holds a skeleton)
	RewriteHits      int `json:"rewrite_hits"`       // searches answered by rewriting (skeleton or window)
	ArtifactBytes    int `json:"artifact_bytes"`     // resident skeleton bytes
	ArtifactMaxBytes int `json:"artifact_max_bytes"` // artifact byte budget
	Promotions       int `json:"-"`                  // never set; only bench/ reads it (ROADMAP item 3 step A)
	Demotions        int `json:"-"`                  // never set; only bench/ reads it (ROADMAP item 3 step A)
}

// Artifact is a view's cached evaluation output, one record per view.
// Results is the skeleton: the view's results in view order, pruned (PDT
// provenance intact, never materialized). A resident artifact is never
// modified, and its nodes are shared with every search that serves from
// it, so all of it must be treated as read-only.
type Artifact struct {
	Results []*xmltree.Node
	Bytes   int
}

// viewEntry is the registry record of one compiled view.
type viewEntry struct {
	id   string
	text string

	hits int // planned searches over this view, lifetime

	art *Artifact
}

// DefaultArtifactBytes bounds the bytes all resident skeletons together
// may hold.
const DefaultArtifactBytes = 64 << 20

// DefaultCapacity bounds the exact-entry count.
const DefaultCapacity = 128

// DefaultMaxBytes bounds the total caller-reported size of resident exact
// entries. Entry count alone is no bound at all: an unranked (top-k = 0)
// search over a large corpus caches its complete materialized result set,
// so a handful of such entries could otherwise hold arbitrary memory.
const DefaultMaxBytes = 64 << 20

// Catalog is the view catalog: the exact-entry LRU result cache, the
// compiled-view registry with hit statistics, and the planner artifacts.
// All methods are safe for concurrent use.
type Catalog struct {
	mu       sync.Mutex
	capacity int
	maxBytes int
	curBytes int
	gen      int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions, invalidations int

	views       map[string]*viewEntry // keyed by view definition text
	nextID      int
	artBytes    int
	artMaxBytes int

	rewriteHits int
}

type entry struct {
	key   string
	size  int
	value any
}

// New returns an empty catalog holding at most DefaultCapacity exact
// entries and DefaultMaxBytes of caller-reported entry size, and at most
// DefaultArtifactBytes of skeletons.
func New() *Catalog {
	return &Catalog{
		capacity:    DefaultCapacity,
		maxBytes:    DefaultMaxBytes,
		ll:          list.New(),
		items:       map[string]*list.Element{},
		views:       map[string]*viewEntry{},
		artMaxBytes: DefaultArtifactBytes,
	}
}

// Get returns the value cached under key. Every resident entry is current:
// Invalidate drops all entries under the same mutex that guards inserts, so
// a lookup never needs a staleness check.
func (c *Catalog) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).value, true
}

// Probe returns the value cached under key without touching the hit/miss
// counters: rewrite tiers use it to check for a servable base entry (e.g.
// the unranked TopK=0 entry a window query slices from) and count their
// own RewriteHits instead. A found entry is still refreshed in the LRU
// order — serving from it keeps it hot.
func (c *Catalog) Probe(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// PutAt inserts value under key only if gen is still the current generation,
// and discards it otherwise. Callers that compute a value outside any lock
// shared with Invalidate use the pattern: read Gen before computing, PutAt
// with that generation after — a value whose computation spanned an
// Invalidate is then never inserted, because the bump made its stamp stale.
// size is the caller-reported footprint of value in bytes; a value larger
// than the cache's byte bound is refused rather than evicting everything.
func (c *Catalog) PutAt(key string, value any, gen, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || size > c.maxBytes {
		return
	}
	c.put(key, value, size)
}

// put inserts value under key at the current generation, evicting least
// recently used entries while either bound (entry count, resident bytes) is
// exceeded; the caller holds c.mu and has checked size <= maxBytes, so the
// loop never evicts the entry it just inserted.
func (c *Catalog) put(key string, value any, size int) {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*entry)
		c.curBytes += size - ent.size
		ent.size, ent.value = size, value
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, size: size, value: value})
		c.curBytes += size
	}
	for c.ll.Len() > c.capacity || c.curBytes > c.maxBytes {
		back := c.ll.Back()
		ent := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.curBytes -= ent.size
		c.evictions++
	}
}

// Gen returns the current generation, for stamping PutAt and artifact
// stores.
func (c *Catalog) Gen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Invalidate bumps the generation and drops every resident exact entry and
// every artifact. Call it whenever the underlying document collection
// changes. The bump (not the drop) is what keeps in-flight computations
// out: a store stamped with the old generation is refused, so a result
// computed across the change can never be inserted afterwards.
func (c *Catalog) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.invalidations++
	c.ll.Init()
	clear(c.items)
	c.curBytes = 0
	for _, ve := range c.views {
		ve.art = nil
	}
	c.artBytes = 0
}

// Register assigns (or returns) the catalog ID of the view with the given
// definition text. IDs are stable for the catalog's lifetime ("cv1",
// "cv2", ... in registration order) and identify the serving view in plan
// reports.
func (c *Catalog) Register(viewText string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.registerLocked(viewText).id
}

// maxViews bounds the registry so unbounded distinct view texts (e.g. a
// workload generating queries programmatically) cannot grow it without
// limit; past the cap the coldest artifact-free entry is dropped.
const maxViews = 4096

func (c *Catalog) registerLocked(viewText string) *viewEntry {
	if ve, ok := c.views[viewText]; ok {
		return ve
	}
	if len(c.views) >= maxViews {
		c.evictColdestViewLocked()
	}
	c.nextID++
	ve := &viewEntry{id: "cv" + strconv.Itoa(c.nextID), text: viewText}
	c.views[viewText] = ve
	return ve
}

// evictColdestViewLocked drops the registry entry with the fewest lifetime
// hits, preferring entries without an artifact (an entry holding one is
// only chosen when every entry does, and its artifact bytes are released).
func (c *Catalog) evictColdestViewLocked() {
	victim, best := "", -1
	for text, ve := range c.views {
		score := ve.hits
		if ve.art != nil {
			score += 1 << 30
		}
		if best == -1 || score < best {
			best, victim = score, text
		}
	}
	if victim == "" {
		return
	}
	if ve := c.views[victim]; ve.art != nil {
		c.artBytes -= ve.art.Bytes
	}
	delete(c.views, victim)
}

// IDOf returns the catalog ID of a registered view ("" if the text was
// never registered).
func (c *Catalog) IDOf(viewText string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ve, ok := c.views[viewText]; ok {
		return ve.id
	}
	return ""
}

// Access records one planned search over the view, answered by source
// (PlanDirect or PlanRewritten). Every access heats the view against
// registry eviction; a rewrite also counts toward RewriteHits.
func (c *Catalog) Access(viewText, source string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(viewText).hits++
	if source == PlanRewritten {
		c.rewriteHits++
	}
}

// Artifact returns the view's artifact, the planner tier it serves
// (PlanRewritten) and the view's catalog ID. With no artifact resident it
// returns nil, PlanDirect and the ID ("" when the text was never
// registered). The caller must hold
// whatever locks make the current generation stable for the duration of
// its use (the engine serves artifacts under the search's shard read
// locks).
func (c *Catalog) Artifact(viewText string) (a *Artifact, source, viewID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ve, ok := c.views[viewText]
	switch {
	case !ok:
		return nil, PlanDirect, ""
	case ve.art == nil:
		return nil, PlanDirect, ve.id
	}
	return ve.art, PlanRewritten, ve.id
}

// StoreSkeleton records a view's evaluation output as its artifact,
// stamped with gen: a stale stamp (a mutation landed since the search
// planned) or an artifact-budget overflow refuses the store, and so does a
// resident artifact (an identical skeleton is already there). Results must
// be in view order and are retained by reference — the engine only stores
// forests whose nodes no caller can mutate.
func (c *Catalog) StoreSkeleton(viewText string, gen int, results []*xmltree.Node, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.artBytes+bytes > c.artMaxBytes {
		return
	}
	ve := c.registerLocked(viewText)
	if ve.art != nil {
		return
	}
	ve.art = &Artifact{Results: results, Bytes: bytes}
	c.artBytes += bytes
}

// Stats returns a snapshot of the catalog counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		CacheStats: CacheStats{
			Hits:          c.hits,
			Misses:        c.misses,
			Evictions:     c.evictions,
			Invalidations: c.invalidations,
			Entries:       c.ll.Len(),
			Capacity:      c.capacity,
			Bytes:         c.curBytes,
			MaxBytes:      c.maxBytes,
			Generation:    c.gen,
		},
		PlannerStats: PlannerStats{
			Views:            len(c.views),
			RewriteHits:      c.rewriteHits,
			ArtifactBytes:    c.artBytes,
			ArtifactMaxBytes: c.artMaxBytes,
		},
	}
	for _, ve := range c.views {
		if ve.art != nil {
			st.Skeletons++
		}
	}
	return st
}

// Len returns the number of resident exact entries.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
