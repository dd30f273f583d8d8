package main

// The traced run. For a fixed sample of a workload's searches the
// benchmark rebuilds a core.Engine over the same generated corpus and
// replays the Efficient pipeline itself, stage by stage, through the
// layers' public functions — one span per call, kept in memory, written
// out when the run ends. The staged answer must be byte-identical to
// Engine.Search, or the layer numbers would describe another pipeline.
// Nothing is traced inside the program: every span is opened here, around
// a call into a layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"vxml"
	"vxml/internal/baseline"
	"vxml/internal/catalog"
	"vxml/internal/core"
	"vxml/internal/dewey"
	"vxml/internal/diskstore"
	"vxml/internal/docname"
	"vxml/internal/invindex"
	"vxml/internal/pathindex"
	"vxml/internal/pdt"
	"vxml/internal/qpt"
	"vxml/internal/scoring"
	"vxml/internal/store"
	"vxml/internal/xmltree"
	"vxml/internal/xq"
	"vxml/internal/xqeval"
)

// tracedSearches is how many searches of the round the staged replay
// covers; the run stops earlier if its time is up.
const tracedSearches = 300

// snippetWidth is the excerpt width core cuts snippets at.
const snippetWidth = 160

type spanName uint8

const (
	spStaged spanName = iota
	spStoredIndices
	spPrepareLists
	spGenerate
	spEval
	spRank
	spMaterialize
	spSubtree
	spSnippet
	spSerialize
	spCoreSearch
	spCoreSearchParallel
	spVxmlSearch
	spHandler
	spRequest
	spCount
)

var spanNames = [spCount]string{
	"staged", "diskstore.stored_indices", "pdt.prepare_lists", "pdt.generate", "xqeval.eval",
	"scoring.rank", "scoring.materialize", "store.subtree", "scoring.snippet", "xmltree.serialize",
	"core.search", "core.search_parallel", "vxml.search", "server.handler", "server.request",
}

// span is one call into a layer: what, for which op, under which span,
// from when to when (nanoseconds since the recorder started).
type span struct {
	name       spanName
	op, parent int32
	start, end int64
}

// recorder keeps spans in a preallocated slice.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name spanName, op int, parent int32) int32 {
	r.spans = append(r.spans, span{name: name, op: int32(op), parent: parent, start: int64(time.Since(r.t0))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) time.Duration {
	s := &r.spans[i]
	s.end = int64(time.Since(r.t0))
	return time.Duration(s.end - s.start)
}

// write stores the spans and a per-name summary (count, total and self
// time: a span's duration minus its children's).
func (r *recorder) write(path string, w *workload) error {
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	type summary struct {
		Count   int     `json:"count"`
		TotalUs float64 `json:"total_us"`
		SelfUs  float64 `json:"self_us"`
	}
	sums := map[string]*summary{}
	rows := make([][5]int64, len(r.spans))
	for i, s := range r.spans {
		rows[i] = [5]int64{int64(s.name), int64(s.op), int64(s.parent), s.start, s.end}
		sm := sums[spanNames[s.name]]
		if sm == nil {
			sm = &summary{}
			sums[spanNames[s.name]] = sm
		}
		sm.Count++
		sm.TotalUs += float64(s.end-s.start) / 1e3
		sm.SelfUs += float64(s.end-s.start-children[i]) / 1e3
	}
	data, err := json.Marshal(struct {
		Workload string              `json:"workload"`
		Seed     int64               `json:"seed"`
		Columns  [5]string           `json:"columns"`
		Names    [spCount]string     `json:"names"`
		Summary  map[string]*summary `json:"summary"`
		Spans    [][5]int64          `json:"spans"`
	}{w.name, w.seed, [5]string{"name", "op", "parent", "start_ns", "end_ns"}, spanNames, sums, rows})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timingFetcher wraps Corpus.Subtree with a span per fetch.
type timingFetcher struct {
	rec    *recorder
	inner  scoring.Fetcher
	op     int
	parent int32
}

func (f *timingFetcher) Subtree(id dewey.ID) *xmltree.Node {
	s := f.rec.begin(spSubtree, f.op, f.parent)
	n := f.inner.Subtree(id)
	f.rec.end(s)
	return n
}

// pdtCatalog resolves fn:doc and fn:collection against generated PDTs, in
// document-ID order, as the engine's own catalog does.
type pdtCatalog struct {
	byName  map[string]*xmltree.Document
	ordered []*xmltree.Document
}

func (c *pdtCatalog) Doc(name string) *xmltree.Document { return c.byName[name] }

func (c *pdtCatalog) DocsMatching(pattern string) []*xmltree.Document {
	var out []*xmltree.Document
	for _, d := range c.ordered {
		if docname.Match(pattern, d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// toResults puts engine results into the caller-facing form the database
// returns (TF keyed by the caller's keywords, the element serialised), so
// one comparison serves both runs.
func toResults(results []core.Result, keywords []string) []vxml.Result {
	out := make([]vxml.Result, len(results))
	for i, r := range results {
		out[i] = vxml.Result{Rank: r.Rank, Score: r.Score, TF: tfMap(keywords, r.TFs), XML: r.Element.XMLString(""), Snippet: r.Snippet}
	}
	return out
}

func tfMap(keywords []string, tfs []int) map[string]int {
	tf := make(map[string]int, len(keywords))
	for i, k := range keywords[:min(len(keywords), len(tfs))] {
		tf[k] = tfs[i]
	}
	return tf
}

// tracer is the engine-side copy of a workload.
type tracer struct {
	eng   *core.Engine
	ds    *diskstore.Store // nil on a heap workload
	views []*core.View
	rec   *recorder
}

// newTracer builds a core.Engine over the workload's documents — through
// the disk store for a disk workload, with the same public calls SaveDisk
// and OpenDisk make.
func newTracer(w *workload, scratch string) (*tracer, error) {
	t := &tracer{}
	eng := core.New(store.NewSharded(w.shards))
	for _, d := range w.docs {
		if err := eng.AddXML(d.name, d.xml); err != nil {
			return nil, err
		}
	}
	if w.disk {
		dir, err := os.MkdirTemp(scratch, w.name+"-trace-")
		if err != nil {
			return nil, err
		}
		eng.RLock()
		ds, err := diskstore.Create(eng.Store, dir, diskstore.Options{},
			func(name string) (*pathindex.Index, *invindex.Index) { return eng.PathIndex(name), eng.InvIndex(name) })
		eng.RUnlock()
		if err != nil {
			return nil, err
		}
		if err := ds.Close(); err != nil {
			return nil, err
		}
		if t.ds, err = diskstore.OpenWith(dir, diskstore.Options{}); err != nil {
			return nil, err
		}
		eng = core.New(t.ds)
	}
	t.eng = eng
	for _, vd := range w.views {
		v, err := eng.CompileView(vd.text)
		if err != nil {
			return nil, err
		}
		t.views = append(t.views, v)
	}
	return t, nil
}

func (t *tracer) close() error {
	if t.ds == nil {
		return nil
	}
	dir := t.ds.DiskStats().Dir
	err := t.ds.Close()
	os.RemoveAll(dir)
	return err
}

// opTrace is what the staged replay of one search measured.
type opTrace struct {
	byName      [spCount]time.Duration // summed span time per name
	fetches     int
	candidates  int
	pdtNodes    int
	pdtBytes    int
	viewResults int
	matched     int
}

// staged replays the Efficient pipeline for one search, a span per call.
func (t *tracer) staged(id int, o *op) ([]vxml.Result, *opTrace, error) {
	rec, v, tr := t.rec, t.views[o.view], &opTrace{}
	first := len(rec.spans)
	root := rec.begin(spStaged, id, -1)
	timed := func(name spanName, parent int32, fn func()) {
		s := rec.begin(name, id, parent)
		fn()
		rec.end(s)
	}
	kws := make([]string, len(o.kws))
	for i, k := range o.kws {
		kws[i] = core.NormalizeKeyword(k)
	}
	t.eng.Store.Pin()
	defer t.eng.Store.Unpin()

	// PDT generation, from indices alone, under the read locks.
	t.eng.RLock()
	cat := &pdtCatalog{byName: map[string]*xmltree.Document{}}
	var stageErr error
	for _, q := range v.QPTs {
		for _, info := range t.eng.Store.InfosMatching(q.Doc) {
			tr.candidates++
			var pix *pathindex.Index
			var iix *invindex.Index
			if t.ds != nil {
				timed(spStoredIndices, root, func() { pix, iix, stageErr = t.ds.StoredIndices(info.Name) })
			} else {
				pix, iix = t.eng.PathIndex(info.Name), t.eng.InvIndex(info.Name)
			}
			if stageErr != nil {
				t.eng.RUnlock()
				return nil, nil, stageErr
			}
			if pix == nil || iix == nil {
				continue
			}
			var lists *pdt.Lists
			var p *pdt.PDT
			timed(spPrepareLists, root, func() { lists = pdt.PrepareLists(q, pix, iix, kws) })
			timed(spGenerate, root, func() { p = pdt.Generate(q, lists, info.Name) })
			tr.pdtNodes += p.Nodes
			tr.pdtBytes += p.Bytes
			if p.Doc != nil {
				cat.byName[p.SourceName] = p.Doc
				cat.ordered = append(cat.ordered, p.Doc)
			}
		}
	}
	sort.Slice(cat.ordered, func(i, j int) bool { return cat.ordered[i].DocID < cat.ordered[j].DocID })

	// The unchanged evaluator over the PDTs, then scoring and top-k.
	var results []*xmltree.Node
	timed(spEval, root, func() {
		ev := xqeval.New(cat, v.Funcs)
		ev.HashJoin = true
		var items []xqeval.Item
		if items, stageErr = ev.Eval(v.Expr, nil); stageErr != nil {
			return
		}
		for _, it := range items {
			if n, ok := it.(*xmltree.Node); ok {
				results = append(results, n)
			}
		}
	})
	var ranking *scoring.Ranking
	timed(spRank, root, func() {
		stats := make([]scoring.Stats, len(results))
		for i, res := range results {
			stats[i] = scoring.Collect(res, kws, scoring.FromPDT)
		}
		ranking = scoring.RankWithStats(results, stats, kws, true, o.k)
	})
	t.eng.RUnlock()
	if stageErr != nil {
		return nil, nil, stageErr
	}
	tr.viewResults, tr.matched = len(results), ranking.Matched

	// Materialise the winners only: the one base-data access.
	out := make([]vxml.Result, 0, len(ranking.Results))
	for i, sc := range ranking.Results {
		var elem *xmltree.Node
		m := rec.begin(spMaterialize, id, root)
		elem = scoring.Materialize(sc.Result, &timingFetcher{rec, t.eng.Store, id, m})
		rec.end(m)
		f := vxml.Result{Rank: i + 1, Score: sc.Score, TF: tfMap(o.kws, sc.Stats.TFs)}
		timed(spSnippet, root, func() { f.Snippet = scoring.Snippet(elem, kws, snippetWidth) })
		timed(spSerialize, root, func() { f.XML = elem.XMLString("") })
		out = append(out, f)
	}
	rec.end(root)
	for _, s := range rec.spans[first:] {
		tr.byName[s.name] += time.Duration(s.end - s.start)
		if s.name == spSubtree {
			tr.fetches++
		}
	}
	return out, tr, nil
}

// series collects one number per traced op and reports the median.
type series []float64

func (s *series) add(v float64)      { *s = append(*s, v) }
func (s *series) us(d time.Duration) { s.add(float64(d) / 1e3) }
func (s series) median() float64     { return median(s) }

func (s series) sum() (total float64) {
	for _, v := range s {
		total += v
	}
	return total
}

// frac is num/den, 0 when there was nothing to divide by.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func cacheDelta(a, b diskstore.CacheStats) (hits, misses float64) {
	return float64(b.Hits - a.Hits), float64(b.Misses - a.Misses)
}

// buildCosts times the layers set-up goes through, one call at a time:
// parsing and index construction over (at most) the first 2 MiB of input,
// view parsing and QPT generation over every view.
func buildCosts(w *workload, m *metricSet) error {
	var parseUs, pathUs, invUs, kib float64
	for i, d := range w.docs {
		if kib > 2048 {
			break
		}
		t0 := time.Now()
		parsed, err := xmltree.ParseString(d.xml, d.name, int32(1<<20+i))
		t1 := time.Now()
		if err != nil {
			return err
		}
		pix := pathindex.Build(parsed)
		t2 := time.Now()
		iix := invindex.Build(parsed)
		t3 := time.Now()
		runtime.KeepAlive(pix)
		runtime.KeepAlive(iix)
		parseUs += float64(t1.Sub(t0)) / 1e3
		pathUs += float64(t2.Sub(t1)) / 1e3
		invUs += float64(t3.Sub(t2)) / 1e3
		kib += float64(len(d.xml)) / 1024
	}
	m.set("xmltree.parse_us_per_kb", parseUs/kib)
	m.set("pathindex.build_us_per_kb", pathUs/kib)
	m.set("invindex.build_us_per_kb", invUs/kib)
	var xqUs, qptUs series
	for _, vd := range w.views {
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			q, err := xq.Parse(vd.text)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := qpt.Generate(q.Body, q.Functions); err != nil {
				return err
			}
			xqUs.us(t1.Sub(t0))
			qptUs.us(time.Since(t1))
		}
	}
	m.set("xq.parse_us", xqUs.median())
	m.set("qpt.generate_us", qptUs.median())
	return nil
}

// catalogPass is the catalog's view of the workload: one whole round
// through the database with the workload's own options, each answer's plan
// source counted and timed.
func catalogPass(in *instance, m *metricSet) (attempted, failed int) {
	w := in.w
	c0 := in.db.CacheStats()
	classUs := map[string]*series{}
	searches, artifactBytes := 0, 0
	for i := range w.round {
		o := &w.round[i]
		if o.kind == opReplace {
			// Artifacts are at their largest just before a write drops them.
			artifactBytes = max(artifactBytes, in.db.CacheStats().ArtifactBytes)
			attempted++
			if err := in.replace(o); err != nil {
				failed++
			}
			continue
		}
		opts := w.search
		opts.TopK = o.k
		t0 := time.Now()
		_, st, err := in.db.Search(in.views[o.view], o.kws, &opts)
		d := time.Since(t0)
		attempted++
		if err != nil {
			failed++
			continue
		}
		if classUs[st.PlanSource] == nil {
			classUs[st.PlanSource] = &series{}
		}
		classUs[st.PlanSource].us(d)
		searches++
	}
	for source, name := range map[string]string{
		catalog.PlanCacheHit: "cache_hit", catalog.PlanRewritten: "rewritten",
		catalog.PlanMaterialized: "materialized", catalog.PlanDirect: "direct",
	} {
		if s := classUs[source]; s != nil {
			m.set("catalog."+name+"_frac", frac(float64(len(*s)), float64(searches)))
			m.set("catalog."+name+"_us", s.median())
		}
	}
	c1 := in.db.CacheStats()
	m.set("catalog.evictions", float64(c1.Evictions-c0.Evictions))
	m.set("catalog.invalidations", float64(c1.Invalidations-c0.Invalidations))
	m.set("catalog.promotions", float64(c1.Promotions-c0.Promotions))
	m.set("catalog.demotions", float64(c1.Demotions-c0.Demotions))
	m.set("catalog.artifact_mb", float64(max(artifactBytes, c1.ArtifactBytes))/(1<<20))
	return attempted, failed
}

// replacePass times Replace through the engine and, on disk, measures what
// a replace appends.
func (t *tracer) replacePass(w *workload, m *metricSet) (attempted, failed int) {
	churn := w.churnOps()
	churn = churn[:min(len(churn), scaled(50, w.scale, 4))]
	var replaceUs series
	var appended, replaced float64
	for i := range churn {
		var d0 diskstore.Stats
		if t.ds != nil {
			d0 = t.ds.DiskStats()
		}
		t0 := time.Now()
		err := t.eng.ReplaceXML(churn[i].doc, churn[i].xml)
		replaceUs.us(time.Since(t0))
		attempted++
		if err != nil {
			failed++
		}
		if t.ds != nil {
			d1 := t.ds.DiskStats()
			appended += float64(d1.DataBytes + d1.ManifestBytes - d0.DataBytes - d0.ManifestBytes)
			replaced += float64(len(churn[i].xml))
		}
	}
	m.set("core.replace_us", replaceUs.median())
	m.set("diskstore.append_bytes_per_replaced_byte", frac(appended, replaced))
	return attempted, failed
}

// runTraced measures one workload's per-layer metrics.
func runTraced(cfg config) (res *result, err error) {
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	m := newMetricSet(perLayer)
	failed, attempted := 0, 0

	if err := buildCosts(w, m); err != nil {
		return nil, err
	}

	in, err := setUp(w, cfg.scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() { err = errors.Join(err, in.close()) }()
	t, err := newTracer(w, cfg.scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: engine copy: %w", w.name, err)
	}
	defer func() { err = errors.Join(err, t.close()) }()
	m.set("diskstore.save_ms", in.saveMs)
	m.set("diskstore.open_ms", in.openMs)
	if t.ds != nil {
		st := t.ds.DiskStats()
		m.set("diskstore.bytes_per_input_byte", frac(float64(st.DataBytes+st.ManifestBytes), float64(w.inputBytes)))
	}

	var sample []int // round indices of the traced searches
	for i := range w.round {
		if w.round[i].kind == opSearch && len(sample) < scaled(tracedSearches, cfg.scale, 8) {
			sample = append(sample, i)
		}
	}
	// Warm the engine copy the way set-up warmed the database.
	for i := 0; i < w.warmup; i++ {
		o := &w.round[sample[i%len(sample)]]
		if _, _, err := t.eng.Search(t.views[o.view], o.kws, core.Options{K: o.k, Parallelism: 1}); err != nil {
			return nil, err
		}
	}
	// Spans per op: three per candidate, a dozen per winner, and a few.
	perOp := 0
	for _, i := range sample {
		perOp = max(perOp, 32+12*w.round[i].k+3*len(w.docs))
	}
	t.rec = newRecorder(len(sample) * perOp)

	var (
		stagedUs, coreUs, coreParUs, vxmlUs, handlerUs, requestUs, respKB series
		layer                                                             [spCount]series
		fetches, fetchedBytes, candidates, pdtNodes, pdtBytes             series
		viewResults, matched, pathProbes, invLookups                      series
		blockHit, blockMiss, docHit, docMiss, idxHit, idxMiss             float64
	)
	handler := http.Handler(nil)
	if w.served {
		handler = in.httpSrv.Handler
	}
	ctx := context.Background()
	runtime.GC()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	start := time.Now()
	traced := 0
	for n, i := range sample {
		if time.Since(start).Seconds() > cfg.seconds {
			break
		}
		traced++
		o := &w.round[i]
		v := t.views[o.view]
		var got, direct []vxml.Result
		// The three engine-side replays take turns going first, so that
		// none is always served from caches another has just warmed. Cache
		// and probe counters are read around whichever goes first.
		steps := []func() error{
			func() error {
				p0, l0 := t.eng.IndexProbes()
				b0 := t.eng.Store.BytesFetched()
				var tr *opTrace
				var err error
				if got, tr, err = t.staged(n, o); err != nil {
					return err
				}
				p1, l1 := t.eng.IndexProbes()
				pathProbes.add(float64(p1 - p0))
				invLookups.add(float64(l1 - l0))
				fetchedBytes.add(float64(t.eng.Store.BytesFetched() - b0))
				stagedUs.us(tr.byName[spStaged])
				for name := range layer {
					layer[name].us(tr.byName[name])
				}
				fetches.add(float64(tr.fetches))
				candidates.add(float64(tr.candidates))
				pdtNodes.add(float64(tr.pdtNodes))
				pdtBytes.add(float64(tr.pdtBytes))
				viewResults.add(float64(tr.viewResults))
				matched.add(float64(tr.matched))
				return nil
			},
			func() error {
				s := t.rec.begin(spCoreSearch, n, -1)
				res, _, err := t.eng.SearchPage(ctx, v, o.kws, core.Options{K: o.k, Parallelism: 1}, 0)
				coreUs.us(t.rec.end(s))
				direct = toResults(res, o.kws)
				return err
			},
			func() error {
				s := t.rec.begin(spCoreSearchParallel, n, -1)
				_, _, err := t.eng.SearchPage(ctx, v, o.kws, core.Options{K: o.k, Parallelism: 0}, 0)
				coreParUs.us(t.rec.end(s))
				return err
			},
		}
		var d0 diskstore.Stats
		if t.ds != nil {
			d0 = t.ds.DiskStats()
		}
		for k := range steps {
			if err := steps[(n+k)%len(steps)](); err != nil {
				return nil, fmt.Errorf("%s: traced op %d: %w", w.name, n, err)
			}
			if k == 0 && t.ds != nil {
				d1 := t.ds.DiskStats()
				h, ms := cacheDelta(d0.BlockCache, d1.BlockCache)
				blockHit, blockMiss = blockHit+h, blockMiss+ms
				h, ms = cacheDelta(d0.DocCache, d1.DocCache)
				docHit, docMiss = docHit+h, docMiss+ms
				h, ms = cacheDelta(d0.IndexCache, d1.IndexCache)
				idxHit, idxMiss = idxHit+h, idxMiss+ms
			}
		}
		if !sameResults(got, direct, true) {
			return nil, fmt.Errorf("%s: traced op %d (view %s, keywords %v, K %d): the staged replay differs from Engine.Search, so the spans describe another pipeline",
				w.name, n, w.views[o.view].name, o.kws, o.k)
		}
		want, _, err := baseline.Search(t.eng, v, o.kws, core.Options{K: o.k})
		attempted++
		if err != nil || !sameResults(direct, toResults(want, o.kws), false) {
			failed++
		}

		// The database-side calls, same rotation.
		opts := vxml.Options{TopK: o.k, Parallelism: 1}
		calls := []func() error{func() error {
			s := t.rec.begin(spVxmlSearch, n, -1)
			_, _, err := in.db.Search(in.views[o.view], o.kws, &opts)
			vxmlUs.us(t.rec.end(s))
			return err
		}}
		if w.served {
			calls = append(calls, func() error {
				req := httptest.NewRequest("POST", "/v1/search", bytes.NewReader(in.requests[i]))
				rw := httptest.NewRecorder()
				s := t.rec.begin(spHandler, n, -1)
				handler.ServeHTTP(rw, req)
				handlerUs.us(t.rec.end(s))
				if rw.Code != http.StatusOK {
					return fmt.Errorf("handler status %d", rw.Code)
				}
				return nil
			}, func() error {
				s := t.rec.begin(spRequest, n, -1)
				body, err := in.post("POST", "/v1/search", in.requests[i])
				requestUs.us(t.rec.end(s))
				respKB.add(float64(len(body)) / 1024)
				return err
			})
		}
		for k := range calls {
			if err := calls[(n+k)%len(calls)](); err != nil {
				return nil, fmt.Errorf("%s: traced op %d: %w", w.name, n, err)
			}
		}
	}
	runtime.ReadMemStats(&gc1)

	for name, metric := range map[spanName]string{
		spStoredIndices: "diskstore.stored_indices_us", spPrepareLists: "pdt.prepare_lists_us",
		spGenerate: "pdt.generate_us", spEval: "xqeval.eval_us", spRank: "scoring.rank_us",
		spMaterialize: "scoring.materialize_us", spSnippet: "scoring.snippet_us", spSerialize: "xmltree.serialize_us",
	} {
		m.set(metric, layer[name].median())
	}
	// What Engine.Search spends outside the staged layers: lock and plan,
	// the catalog probe, stats. By construction the layers and this sum to
	// core.search_us. (Serialisation happens above core, in vxml.)
	inCore := 0.0
	for _, name := range []spanName{spStoredIndices, spPrepareLists, spGenerate, spEval, spRank, spMaterialize, spSnippet} {
		inCore += layer[name].median()
	}
	m.set("core.search_us", coreUs.median())
	m.set("core.other_us", coreUs.median()-inCore)
	m.set("core.parallel_speedup", frac(coreUs.median(), coreParUs.median()))
	m.set("vxml.search_us", vxmlUs.median())
	m.set("vxml.overhead_us", vxmlUs.median()-coreUs.median())
	if w.served {
		m.set("server.request_us", requestUs.median())
		m.set("server.handler_us", handlerUs.median())
		m.set("server.transport_us", requestUs.median()-handlerUs.median())
		m.set("server.overhead_us", handlerUs.median()-vxmlUs.median())
		m.set("server.response_kb", respKB.median())
	}
	m.set("trace.overhead_frac", frac(stagedUs.median()-layer[spSerialize].median()-coreUs.median(), coreUs.median()))
	m.set("trace.ops", float64(traced))
	m.set("pathindex.probes_per_search", pathProbes.median())
	m.set("invindex.lookups_per_search", invLookups.median())
	m.set("pdt.candidates_per_search", candidates.median())
	m.set("pdt.nodes_per_search", pdtNodes.median())
	m.set("pdt.bytes_per_search", pdtBytes.median())
	m.set("xqeval.view_results_per_search", viewResults.median())
	m.set("scoring.matched_frac", frac(matched.sum(), viewResults.sum()))
	m.set("store.subtree_fetches_per_search", fetches.median())
	m.set("store.bytes_fetched_per_search", fetchedBytes.median())
	m.set("store.subtree_us", frac(layer[spSubtree].sum(), fetches.sum()))
	m.set("diskstore.block_hit_frac", frac(blockHit, blockHit+blockMiss))
	m.set("diskstore.block_misses_per_search", frac(blockMiss, float64(traced))) // a mean: the median search misses nothing
	m.set("diskstore.doc_hit_frac", frac(docHit, docHit+docMiss))
	m.set("diskstore.index_hit_frac", frac(idxHit, idxHit+idxMiss))
	m.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	m.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)

	ops, bad := catalogPass(in, m)
	attempted, failed = attempted+ops, failed+bad

	replaces, bad := t.replacePass(w, m)
	attempted, failed = attempted+replaces, failed+bad

	if err := t.rec.write(filepath.Join(cfg.out, "trace-"+w.name+".json"), w); err != nil {
		return nil, err
	}
	return &result{
		Workload:    w.name,
		Seed:        cfg.seed,
		Trace:       true,
		InputSHA256: w.fingerprint(),
		InputBytes:  w.inputBytes,
		Attempted:   attempted,
		Failed:      failed,
		Counts:      map[string]int{"traced_searches": traced, "spans": len(t.rec.spans), "replaces": replaces, "round_ops": len(w.round)},
		Metrics:     m.values(),
	}, nil
}
