// The Backend seam: the HTTP layer serves either a single-process
// vxml.Database or a cluster.Coordinator through one interface, so the
// routes, validation, error mapping and wire shapes are written once and
// the distributed deployment is byte-identical to the single-process one at
// the API boundary.

package server

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"vxml"
	"vxml/internal/catalog"
	"vxml/internal/cluster"
	"vxml/internal/diskstore"
	"vxml/internal/store"
)

// Backend is the serving surface the HTTP handlers run against. Both
// implementations — dbBackend around a *vxml.Database, coordBackend around
// a *cluster.Coordinator — resolve views by registered name and return
// byte-identical results for the same corpus and arguments.
type Backend interface {
	// AddDocument, ReplaceDocument and DeleteDocument mutate the corpus
	// (vxml error taxonomy: ErrDuplicateDocument, ErrUnknownDocument,
	// wrapped context errors).
	AddDocument(ctx context.Context, name, xml string) error
	ReplaceDocument(ctx context.Context, name, xml string) error
	DeleteDocument(ctx context.Context, name string) error
	// DefineView compiles and registers a view under name, returning its
	// canonical definition text. With replace unset, an existing name
	// fails with vxml.ErrDuplicateView.
	DefineView(ctx context.Context, name, xquery string, replace bool) (string, error)
	HasView(name string) bool
	ViewCount() int
	DocumentNames() []string
	TotalBytes() int
	Search(ctx context.Context, view string, keywords []string, opts *vxml.Options) ([]vxml.Result, *vxml.Stats, error)
	Results(ctx context.Context, view string, keywords []string, opts *vxml.Options) iter.Seq2[vxml.Result, error]
	Explain(ctx context.Context, view string, keywords []string) (string, error)
	CacheStats() catalog.Stats
	// PlanProbe reports which catalog tier would answer a cached search
	// over the view — "cache_hit", "rewritten" or "direct" — plus the
	// view's catalog ID, without evaluating anything.
	PlanProbe(view string, keywords []string) (source, viewID string, err error)
	// Shards reports per-partition counters: corpus shards for a
	// database, cluster slots for a coordinator.
	Shards() []store.ShardInfo
	// DiskStats reports the disk backend's counters; ok is false when the
	// corpus is heap-resident (or served through a coordinator).
	DiskStats() (stats diskstore.Stats, ok bool)
}

// dbBackend adapts a single-process Database plus the named-view registry
// the HTTP layer needs (a Database itself passes compiled *View values).
type dbBackend struct {
	db    *vxml.Database
	mu    sync.RWMutex
	views map[string]*vxml.View
}

func newDBBackend(db *vxml.Database) *dbBackend {
	return &dbBackend{db: db, views: map[string]*vxml.View{}}
}

func (b *dbBackend) view(name string) *vxml.View {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.views[name]
}

// resolve maps a view name to its compiled view or the taxonomy error the
// search and explain paths report for an unknown name.
func (b *dbBackend) resolve(name string) (*vxml.View, error) {
	if v := b.view(name); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %q", vxml.ErrUnknownView, name)
}

func (b *dbBackend) AddDocument(_ context.Context, name, xml string) error {
	return b.db.Add(name, xml)
}

func (b *dbBackend) ReplaceDocument(ctx context.Context, name, xml string) error {
	return b.db.ReplaceContext(ctx, name, xml)
}

func (b *dbBackend) DeleteDocument(ctx context.Context, name string) error {
	return b.db.DeleteContext(ctx, name)
}

func (b *dbBackend) DefineView(ctx context.Context, name, xquery string, replace bool) (string, error) {
	view, err := b.db.DefineViewContext(ctx, xquery)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.views[name]; dup && !replace {
		return "", fmt.Errorf("%w: %q", vxml.ErrDuplicateView, name)
	}
	b.views[name] = view
	return view.Definition(), nil
}

func (b *dbBackend) HasView(name string) bool { return b.view(name) != nil }

func (b *dbBackend) ViewCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.views)
}

func (b *dbBackend) DocumentNames() []string { return b.db.DocumentNames() }
func (b *dbBackend) TotalBytes() int         { return b.db.TotalBytes() }

func (b *dbBackend) Search(ctx context.Context, view string, keywords []string, opts *vxml.Options) ([]vxml.Result, *vxml.Stats, error) {
	v, err := b.resolve(view)
	if err != nil {
		return nil, nil, err
	}
	return b.db.SearchContext(ctx, v, keywords, opts)
}

func (b *dbBackend) Results(ctx context.Context, view string, keywords []string, opts *vxml.Options) iter.Seq2[vxml.Result, error] {
	v, err := b.resolve(view)
	if err != nil {
		return func(yield func(vxml.Result, error) bool) { yield(vxml.Result{}, err) }
	}
	return b.db.Results(ctx, v, keywords, opts)
}

func (b *dbBackend) Explain(ctx context.Context, view string, keywords []string) (string, error) {
	v, err := b.resolve(view)
	if err != nil {
		return "", err
	}
	return b.db.ExplainContext(ctx, v, keywords)
}

func (b *dbBackend) CacheStats() catalog.Stats { return b.db.CacheStats() }

func (b *dbBackend) PlanProbe(view string, keywords []string) (string, string, error) {
	v, err := b.resolve(view)
	if err != nil {
		return "", "", err
	}
	source, viewID := b.db.PlanProbe(v, keywords)
	return source, viewID, nil
}

func (b *dbBackend) DiskStats() (diskstore.Stats, bool) { return b.db.DiskStats() }

func (b *dbBackend) Shards() []store.ShardInfo { return b.db.ShardStats() }

// coordBackend adapts a cluster coordinator; view registration, search
// routing and mutation fan-out all live in internal/cluster.
type coordBackend struct {
	coord *cluster.Coordinator
}

func (b *coordBackend) AddDocument(ctx context.Context, name, xml string) error {
	return b.coord.AddDocument(ctx, name, xml)
}

func (b *coordBackend) ReplaceDocument(ctx context.Context, name, xml string) error {
	return b.coord.ReplaceDocument(ctx, name, xml)
}

func (b *coordBackend) DeleteDocument(ctx context.Context, name string) error {
	return b.coord.DeleteDocument(ctx, name)
}

func (b *coordBackend) DefineView(ctx context.Context, name, xquery string, replace bool) (string, error) {
	if replace {
		return b.coord.ForceDefineView(ctx, name, xquery)
	}
	return b.coord.DefineView(ctx, name, xquery)
}

func (b *coordBackend) HasView(name string) bool  { return b.coord.HasView(name) }
func (b *coordBackend) ViewCount() int            { return b.coord.ViewCount() }
func (b *coordBackend) DocumentNames() []string   { return b.coord.DocumentNames() }
func (b *coordBackend) TotalBytes() int           { return b.coord.TotalBytes() }
func (b *coordBackend) CacheStats() catalog.Stats { return b.coord.CacheStats() }

func (b *coordBackend) PlanProbe(view string, keywords []string) (string, string, error) {
	return b.coord.PlanProbe(view, keywords)
}

// DiskStats: a coordinator has no local corpus; per-node disk counters
// live on the nodes' own stats surfaces.
func (b *coordBackend) DiskStats() (diskstore.Stats, bool) { return diskstore.Stats{}, false }

func (b *coordBackend) Search(ctx context.Context, view string, keywords []string, opts *vxml.Options) ([]vxml.Result, *vxml.Stats, error) {
	return b.coord.Search(ctx, view, keywords, opts)
}

func (b *coordBackend) Results(ctx context.Context, view string, keywords []string, opts *vxml.Options) iter.Seq2[vxml.Result, error] {
	return b.coord.Results(ctx, view, keywords, opts)
}

func (b *coordBackend) Explain(ctx context.Context, view string, keywords []string) (string, error) {
	return b.coord.Explain(ctx, view, keywords)
}

func (b *coordBackend) Shards() []store.ShardInfo {
	slots := b.coord.Slots()
	out := make([]store.ShardInfo, len(slots))
	for i, sc := range slots {
		// A slot's generation advances once per acknowledged mutation, so
		// it doubles as the mutation counter single-process shards report.
		out[i] = store.ShardInfo{Shard: sc.Slot, Documents: sc.Documents, Bytes: sc.Bytes, Mutations: int(sc.Gen)}
	}
	return out
}
