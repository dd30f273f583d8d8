package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/diskstore"
	"vxml/internal/docname"
	"vxml/internal/store"
)

// Defaults for Config's zero fields.
const (
	defaultTimeout = 30 * time.Second
	defaultRetries = 1
	// searchRetries is the number of times a whole search is re-issued
	// when a node answers at an unexpectedly newer generation (a mutation
	// landed mid-search).
	searchRetries = 3
)

// Config describes a cluster to a Coordinator.
type Config struct {
	// Slots lists the cluster members: Slots[i] holds the base URLs of the
	// processes serving corpus partition i, primary first, read replicas
	// after. Mutations go to the primary only; reads fail over in order.
	Slots [][]string
	// Partition holds the document-name patterns (docname wildcards) that
	// hash-partition across slots; every other document is broadcast to
	// all slots. Nil defaults to {"part-*"}. An empty (non-nil) slice
	// broadcasts everything.
	Partition []string
	// Timeout bounds each node RPC attempt, including reading a streamed
	// reply. 0 defaults to 30s.
	Timeout time.Duration
	// Retries is the number of extra attempts per member after a transport
	// failure. 0 defaults to 1; negative means none.
	Retries int
	// Client is the HTTP client for node RPCs; nil uses a private default.
	Client *http.Client
}

// docInfo is one registry entry: where a document lives and what the
// cluster-global ID the coordinator assigned it is.
type docInfo struct {
	id    int32
	slot  int // owning slot; -1 = broadcast (resident on every slot)
	bytes int
}

// Coordinator owns the cluster-global state — document registry, document
// ID allocation, per-slot generation vector, view registry, query-result
// catalog — and serves the same search/mutation surface as a vxml.Database,
// scatter-gathering over the configured nodes. Results are byte-identical
// to a single-process database holding the same corpus (see the package
// documentation for the argument). It is safe for concurrent use, and it
// is the server.Backend the public /v1 API serves a cluster through.
//
// The catalog is the same type the single-process engine uses
// (internal/catalog): the coordinator's tiers are the exact result cache
// and the TopK-window rewrite over the shared unpaged entry. There is no
// skeleton tier anywhere in a cluster: no node request turns on the
// engine planner, so a node never serves from an artifact.
type Coordinator struct {
	cfg    Config
	client *http.Client
	cache  *catalog.Catalog

	// mutMu serializes mutations and is held across their node RPCs; mu
	// guards the registry state below and is held only for memory access,
	// so searches snapshot the registry without waiting out a mutation's
	// network round trips.
	mutMu sync.Mutex
	mu    sync.RWMutex
	// gens is the generation vector: gens[s] is the generation slot s's
	// corpus must answer reads at. Each acknowledged mutation on a slot
	// advances it by one.
	gens   []uint64
	docs   map[string]*docInfo
	views  map[string]*core.View
	nextID int32
	// answered[s] is the member of slot s that last answered a read (0,
	// the primary, until one fails over). Rank and single-node reads try
	// it first, so a hanging member costs its per-RPC timeout once, not on
	// every read.
	answered []atomic.Int32
}

// NewCoordinator validates cfg, applies defaults and returns an empty
// coordinator. Nodes are not contacted; they must simply be empty (or
// snapshot-bootstrapped consistently) when traffic starts.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Slots) == 0 {
		return nil, errors.New("cluster: config needs at least one slot")
	}
	for i, members := range cfg.Slots {
		if len(members) == 0 {
			return nil, fmt.Errorf("cluster: slot %d has no members", i)
		}
	}
	if cfg.Partition == nil {
		cfg.Partition = []string{"part-*"}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = defaultRetries
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Coordinator{
		cfg:      cfg,
		client:   client,
		cache:    catalog.New(),
		gens:     make([]uint64, len(cfg.Slots)),
		docs:     map[string]*docInfo{},
		views:    map[string]*core.View{},
		nextID:   1,
		answered: make([]atomic.Int32, len(cfg.Slots)),
	}, nil
}

// partitioned reports whether a document name hash-partitions (matches one
// of the Partition patterns) rather than broadcasting.
func (c *Coordinator) partitioned(name string) bool {
	for _, p := range c.cfg.Partition {
		if docname.Match(p, name) {
			return true
		}
	}
	return false
}

// slotOf assigns a partitioned name its owning slot (FNV-1a, like
// store.ShardOf one level down — any fixed hash works; it only decides
// placement, never results).
func (c *Coordinator) slotOf(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(c.cfg.Slots)))
}

// AddDocument parses, stores and indexes a document on its owning slot
// (partitioned names) or on every slot (broadcast names), under a freshly
// allocated cluster-global document ID, then invalidates the query-result
// cache — the cluster-wide equivalent of Database.Add.
func (c *Coordinator) AddDocument(ctx context.Context, name, xmlText string) error {
	return c.put(ctx, "add", name, xmlText)
}

// ReplaceDocument atomically swaps a document's content cluster-wide. Like
// Database.Replace, the replacement is a new document in global order: it
// receives a fresh coordinator-assigned ID, so collection views on every
// node enumerate it last.
func (c *Coordinator) ReplaceDocument(ctx context.Context, name, xmlText string) error {
	return c.put(ctx, "replace", name, xmlText)
}

// put stores a document under a freshly allocated cluster-global ID: op
// "add" requires an unregistered name and places it by the partition rule,
// op "replace" requires a registered one and keeps its slot.
func (c *Coordinator) put(ctx context.Context, op, name, xmlText string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: %s interrupted: %w", op, err)
	}
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	c.mu.Lock()
	info, registered := c.docs[name]
	if registered != (op == "replace") {
		c.mu.Unlock()
		if registered {
			return fmt.Errorf("cluster: add: %w: %q", vxml.ErrDuplicateDocument, name)
		}
		return fmt.Errorf("cluster: replace: %w %q", vxml.ErrUnknownDocument, name)
	}
	// Reserve the ID before pushing: a failed mutation may still have
	// landed on some node (partial broadcast, ambiguous timeout), so the ID
	// is consumed either way and must never be handed to a different
	// document.
	id := c.nextID
	c.nextID = id + 1
	c.mu.Unlock()
	slot := -1
	switch {
	case registered:
		slot = info.slot
	case c.partitioned(name):
		slot = c.slotOf(name)
	}
	byteLen, err := c.mutate(ctx, slot, documentRequest{Schema: Schema, Op: op, Name: name, XML: xmlText, DocID: id})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.docs[name] = &docInfo{id: id, slot: slot, bytes: byteLen}
	c.mu.Unlock()
	c.cache.Invalidate()
	return nil
}

// DeleteDocument removes a document cluster-wide and invalidates the
// query-result cache.
func (c *Coordinator) DeleteDocument(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cluster: delete interrupted: %w", err)
	}
	c.mutMu.Lock()
	defer c.mutMu.Unlock()
	c.mu.RLock()
	info, ok := c.docs[name]
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: delete: %w %q", vxml.ErrUnknownDocument, name)
	}
	if _, err := c.mutate(ctx, info.slot, documentRequest{Schema: Schema, Op: "delete", Name: name}); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.docs, name)
	c.mu.Unlock()
	c.cache.Invalidate()
	return nil
}

// mutate applies one mutation on the owning slot (slot >= 0) or on every
// slot (slot < 0), advancing each slot's generation as its primary
// acknowledges. The registry is only updated by the caller after full
// success. A failure mid-broadcast is repaired in place: a half-applied
// add is compensated with best-effort deletes (undoAdd) so the name is
// left unregistered everywhere and a retry starts clean, and a delete
// that finds the document already absent on some slot (a prior
// partially-failed delete) treats absence as the goal state and moves on.
// A half-applied replace is the one case left divergent until the failed
// slot recovers — the coordinator keeps the old registry entry, and only
// broadcast documents can be mid-replace, so partitioned reads are never
// affected.
func (c *Coordinator) mutate(ctx context.Context, slot int, req documentRequest) (int, error) {
	targets := make([]int, 0, len(c.cfg.Slots))
	if slot >= 0 {
		targets = append(targets, slot)
	} else {
		for s := range c.cfg.Slots {
			targets = append(targets, s)
		}
	}
	byteLen := 0
	acked := make([]int, 0, len(targets))
	for _, s := range targets {
		c.mu.RLock()
		gen := c.gens[s]
		primary := c.cfg.Slots[s][0]
		c.mu.RUnlock()
		req.SetGen = gen + 1
		var resp documentResponse
		if err := c.postJSON(ctx, primary, "/documents", req, &resp); err != nil {
			var ne *nodeCallError
			if req.Op == "delete" && errors.As(err, &ne) && ne.Code == codeUnknownDocument {
				// The document is already gone on this slot (a prior
				// partially-failed delete): absence is what a delete wants,
				// so count the slot as done. The registry guaranteed the
				// name was registered before we got here, so this can only
				// be repair, not a user error.
				continue
			}
			if req.Op == "add" {
				c.undoAdd(ctx, req.Name, append(acked, s))
			}
			return 0, c.mutationError(ctx, req.Op, req.Name, s, err)
		}
		byteLen = resp.ByteLen
		c.mu.Lock()
		c.gens[s] = gen + 1
		c.mu.Unlock()
		acked = append(acked, s)
	}
	return byteLen, nil
}

// undoAdd best-effort deletes a partially-applied add from every slot that
// may hold it, so the name is left unregistered cluster-wide and a retry
// (or any later add of the same name) starts clean rather than tripping
// over an orphan. The failed slot is included because a timeout is
// ambiguous — the node may have applied the add before the deadline — and
// deleting an absent name is a cheap rejected RPC. Compensation runs on a
// cancellation-free context so a caller that already gave up cannot strand
// the orphan; each RPC is still bounded by the per-call timeout.
func (c *Coordinator) undoAdd(ctx context.Context, name string, slots []int) {
	ctx = context.WithoutCancel(ctx)
	for _, s := range slots {
		c.mu.RLock()
		gen := c.gens[s]
		primary := c.cfg.Slots[s][0]
		c.mu.RUnlock()
		req := documentRequest{Schema: Schema, Op: "delete", Name: name, SetGen: gen + 1}
		var resp documentResponse
		if err := c.postJSON(ctx, primary, "/documents", req, &resp); err != nil {
			// Unreachable, or the slot never applied the add — either way
			// there is nothing left to clean up here.
			continue
		}
		c.mu.Lock()
		c.gens[s] = gen + 1
		c.mu.Unlock()
	}
}

// mutationError translates a node mutation failure into the public error
// taxonomy: node-reported duplicate/unknown conditions keep their vxml
// sentinels, a canceled caller context keeps its context error, and
// anything else (node down, per-RPC timeout) is ErrNodeUnavailable with
// the transport cause in the message.
func (c *Coordinator) mutationError(ctx context.Context, verb, name string, slot int, err error) error {
	var ne *nodeCallError
	if errors.As(err, &ne) {
		switch ne.Code {
		case codeDuplicate:
			return fmt.Errorf("cluster: %s: %w: %q", verb, vxml.ErrDuplicateDocument, name)
		case codeUnknownDocument:
			return fmt.Errorf("cluster: %s: %w %q", verb, vxml.ErrUnknownDocument, name)
		case codeInvalid:
			// The node rejected the request body (malformed XML) — the
			// client's fault, not the cluster's.
			return fmt.Errorf("cluster: %s %q: %w: %s", verb, name, vxml.ErrInvalidOptions, ne.Msg)
		}
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("cluster: %s %q interrupted: %w", verb, name, ctxErr)
	}
	return fmt.Errorf("%s %q on slot %d primary: %w: %v", verb, name, slot, vxml.ErrNodeUnavailable, err)
}

// DefineView compiles and registers a named view cluster-wide: the
// definition is validated against the cluster-wide registry (literal
// references must name registered documents), classified for routing, and
// pushed to every member. A member that is down simply learns the view
// later through the self-healing re-push a read triggers on unknown_view.
// With replace unset, defining an already-registered name fails with
// vxml.ErrDuplicateView; with it set, the registration is replaced.
func (c *Coordinator) DefineView(ctx context.Context, name, xquery string, replace bool) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("cluster: define view interrupted: %w", err)
	}
	v, err := core.Compile(xquery)
	if err != nil {
		return "", err
	}
	c.mu.RLock()
	_, dup := c.views[name]
	err = v.CheckRefs(func(ref string) bool {
		_, ok := c.docs[ref]
		return ok
	})
	members := c.allMembersLocked()
	c.mu.RUnlock()
	if err != nil {
		return "", err
	}
	if dup && !replace {
		return "", fmt.Errorf("cluster: %w: %q", vxml.ErrDuplicateView, name)
	}
	for _, m := range members {
		_ = c.pushView(ctx, m, name, xquery) // best-effort; reads self-heal
	}
	c.mu.Lock()
	c.views[name] = v
	c.mu.Unlock()
	// Catalog registration gives the view a stable ID ("cv1", "cv2", …)
	// that plan stats and /v1/explain report — same discipline as
	// core.Engine.CompileView.
	c.cache.Register(xquery)
	return xquery, nil
}

// pushView ships one view definition to one member.
func (c *Coordinator) pushView(ctx context.Context, member, name, xquery string) error {
	return c.postJSON(ctx, member, "/views", viewRequest{Schema: Schema, Name: name, XQuery: xquery}, nil)
}

// allMembersLocked flattens the member URLs of every slot. Caller holds mu.
func (c *Coordinator) allMembersLocked() []string {
	var members []string
	for _, slot := range c.cfg.Slots {
		members = append(members, slot...)
	}
	return members
}

// HasView reports whether a view name is registered.
func (c *Coordinator) HasView(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.views[name]
	return ok
}

// ViewCount reports the number of registered views.
func (c *Coordinator) ViewCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.views)
}

// DocumentNames returns every registered document name in cluster-global
// document order — the order collection views enumerate them on every node.
func (c *Coordinator) DocumentNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.docs))
	for name := range c.docs {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return c.docs[names[i]].id < c.docs[names[j]].id })
	return names
}

// TotalBytes reports the summed serialized size of all registered
// documents, each counted once regardless of replication.
func (c *Coordinator) TotalBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, info := range c.docs {
		total += info.bytes
	}
	return total
}

// CacheStats snapshots the coordinator's query-result catalog counters.
func (c *Coordinator) CacheStats() catalog.Stats { return c.cache.Stats() }

// PlanProbe reports which catalog tier would answer a cached search over
// the named view with the given keywords, without evaluating anything (see
// vxml.PlanProbe). The coordinator's catalog never holds a skeleton — nodes
// always evaluate directly — so the answer is "cache_hit" or "direct".
// viewID is the catalog ID of the view.
func (c *Coordinator) PlanProbe(name string, keywords []string) (source, viewID string, err error) {
	c.mu.RLock()
	v := c.views[name]
	c.mu.RUnlock()
	if v == nil {
		return "", "", fmt.Errorf("cluster: %w: %q", vxml.ErrUnknownView, name)
	}
	source, viewID = vxml.PlanProbe(c.cache, v.Text, keywords)
	return source, viewID, nil
}

// Shards reports one entry per slot, in slot order. Documents and Bytes
// count the documents resident on the slot — broadcast documents count on
// every slot, partitioned ones on their owner only. A slot's generation
// advances once per acknowledged mutation, so it doubles as the mutation
// count a single-process shard reports.
func (c *Coordinator) Shards() []store.ShardInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]store.ShardInfo, len(c.cfg.Slots))
	for s := range out {
		out[s] = store.ShardInfo{Shard: s, Mutations: int(c.gens[s])}
	}
	for _, info := range c.docs {
		if info.slot >= 0 {
			out[info.slot].Documents++
			out[info.slot].Bytes += info.bytes
			continue
		}
		for s := range out {
			out[s].Documents++
			out[s].Bytes += info.bytes
		}
	}
	return out
}

// DiskStats reports ok=false: a coordinator has no local corpus, and each
// node's disk counters stay on that node.
func (c *Coordinator) DiskStats() (stats diskstore.Stats, ok bool) { return diskstore.Stats{}, false }

// route is a classification decision: scatter over every slot, or serve
// whole on one slot (slot -1: any slot works) for the reason why.
type route struct {
	scatter bool
	slot    int
	why     string
}

// classifyLocked decides how to serve a search over v against the current
// registry. Caller holds mu (read). The decision is per-search because it
// depends on what documents currently match each collection pattern.
//
// Scatter requires the partition rule core runs per-document units by
// (core.Deps.Partition: the outer FLWOR opens with a for over a reference
// used nowhere else), every outer document partitioned (each lives on
// exactly one node, so concatenating per-node view outputs in document-ID
// order reproduces the global view output) and every other reference's
// documents broadcast (bit-identical on every node). Otherwise the search
// runs whole on the single slot owning every partitioned document it
// references — or fails with ErrUnroutableView when no such slot exists.
func (c *Coordinator) classifyLocked(v *core.View) (route, error) {
	// matching resolves a reference to the registry entries it names.
	matching := func(ref string) []*docInfo {
		if !docname.IsPattern(ref) {
			if info, ok := c.docs[ref]; ok {
				return []*docInfo{info}
			}
			return nil
		}
		var infos []*docInfo
		for name, info := range c.docs {
			if docname.Match(ref, name) {
				infos = append(infos, info)
			}
		}
		return infos
	}

	why := v.Deps.Partition()
	for _, ref := range v.Deps.Refs {
		for _, info := range matching(ref) {
			switch partitioned := info.slot >= 0; {
			case why != "": // the first reason stands
			case ref == v.Deps.Outer && !partitioned:
				why = "an outer document is broadcast"
			case ref != v.Deps.Outer && partitioned:
				why = "a side document is partitioned"
			}
		}
	}
	if why == "" {
		return route{scatter: true}, nil
	}
	slot := -1
	for _, ref := range v.Deps.Refs {
		for _, info := range matching(ref) {
			switch {
			case info.slot < 0 || info.slot == slot:
			case slot == -1:
				slot = info.slot
			default:
				return route{}, fmt.Errorf("%w: it does not scatter (%s) and references partitioned documents on multiple nodes", vxml.ErrUnroutableView, why)
			}
		}
	}
	return route{slot: slot, why: why}, nil
}

// Explain renders the coordinator's routing plan for a search over the
// named view: classification, target slots and members, the generation
// vector — the cluster-level analogue of Database.Explain (node-local
// index plans live on the nodes).
func (c *Coordinator) Explain(ctx context.Context, name string, keywords []string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", fmt.Errorf("cluster: explain interrupted: %w", err)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := c.views[name]
	if v == nil {
		return "", fmt.Errorf("cluster: %w: %q", vxml.ErrUnknownView, name)
	}
	var b strings.Builder
	b.WriteString("view:\n")
	for _, line := range strings.Split(strings.TrimSpace(v.Text), "\n") {
		b.WriteString("  ")
		b.WriteString(strings.TrimSpace(line))
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\npartition patterns: %s\n", strings.Join(c.cfg.Partition, ", "))
	rt, err := c.classifyLocked(v)
	switch {
	case err != nil:
		fmt.Fprintf(&b, "route: unroutable: %v\n", err)
	case rt.scatter:
		fmt.Fprintf(&b, "route: scatter-gather over %d slot(s)\n", len(c.cfg.Slots))
	case rt.slot >= 0:
		fmt.Fprintf(&b, "route: single node, slot %d (%s)\n", rt.slot, rt.why)
	default:
		fmt.Fprintf(&b, "route: single node, any slot (%s)\n", rt.why)
	}
	for s, members := range c.cfg.Slots {
		fmt.Fprintf(&b, "slot %d @ gen %d: %s\n", s, c.gens[s], strings.Join(members, ", "))
	}
	if len(keywords) > 0 {
		fmt.Fprintf(&b, "keywords: %s\n", strings.Join(keywords, ", "))
	}
	return b.String(), nil
}
