package main

// The end-to-end run: set up a workload (several times, for a median
// setup_s), repeat its round closed-loop until the time is up, check a
// sample of the answers against the Baseline pipeline, then the write
// phase. Tracing is off here; trace.go does the per-layer run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vxml"
	"vxml/internal/server"
)

// config is what one run is asked to do.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	scale    float64 // 1 = the calibrated sizes; smaller for smoke runs
	setups   int     // set-up repetitions; 0 = the workload's own count
	scratch  string  // directory for disk corpora and saved snapshots
	out      string  // directory for span files
}

// oracleEvery is the sampling stride of the correctness oracle: every
// 50th timed search is compared with the Baseline pipeline.
const oracleEvery = 50

// replaceSegment is how many ops of the write phase run between two
// readings of the host clock.
const replaceSegment = 10

// result is what one run reports.
type result struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	InputSHA256 string `json:"input_sha256"`
	InputBytes  int    `json:"input_bytes"`
	// HostFactor is the mean of the host clock's factors over the run: a
	// timing metric times it is, roughly, the raw wall-clock value.
	HostFactor float64          `json:"host_factor"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Counts     map[string]int   `json:"counts"`
	Metrics    map[string]value `json:"metrics"`
}

// instance is a set-up workload: the database under test, its compiled
// views and, for a served workload, the HTTP server in front of it.
type instance struct {
	w     *workload
	db    *vxml.Database
	views []*vxml.View
	dir   string // disk corpus directory ("" on heap workloads)

	httpSrv  *http.Server
	served   chan error // receives Serve's return
	client   *http.Client
	baseURL  string
	requests [][]byte // pre-encoded search request per round op

	saveMs, openMs float64
}

// setUp ingests and indexes the workload's documents, moves them to disk
// and reopens them for a disk workload, defines the views, starts the
// server for a served workload and runs the warm-up searches.
func setUp(w *workload, scratch string) (*instance, error) {
	in := &instance{w: w}
	db := vxml.OpenShards(w.shards)
	for _, d := range w.docs {
		if err := db.Add(d.name, d.xml); err != nil {
			return nil, fmt.Errorf("ingest %s: %w", d.name, err)
		}
	}
	if w.disk {
		dir, err := os.MkdirTemp(scratch, w.name+"-disk-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		t0 := time.Now()
		if err := db.SaveDisk(dir); err != nil {
			return nil, fmt.Errorf("SaveDisk: %w", err)
		}
		in.saveMs = ms(time.Since(t0))
		if err := db.Close(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		if db, err = vxml.OpenDisk(dir); err != nil {
			return nil, fmt.Errorf("OpenDisk: %w", err)
		}
		in.openMs = ms(time.Since(t0))
	}
	in.db = db
	for _, vd := range w.views {
		v, err := db.DefineView(vd.text)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", vd.name, err)
		}
		in.views = append(in.views, v)
	}
	if w.served {
		if err := in.serve(); err != nil {
			return nil, err
		}
	}
	for i, n := 0, 0; n < w.warmup; i++ {
		o := &w.round[i%len(w.round)]
		if o.kind != opSearch {
			continue
		}
		if _, err := in.search(i%len(w.round), false); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		n++
	}
	return in, nil
}

// searchRequest is the wire shape of POST /v1/search.
type searchRequest struct {
	View        string   `json:"view"`
	Keywords    []string `json:"keywords"`
	TopK        int      `json:"top_k"`
	Cache       bool     `json:"cache"`
	Parallelism int      `json:"parallelism"`
}

// searchResponse is the part of the reply the oracle reads.
type searchResponse struct {
	Results []struct {
		Rank    int            `json:"rank"`
		Score   float64        `json:"score"`
		TF      map[string]int `json:"tf"`
		XML     string         `json:"xml"`
		Snippet string         `json:"snippet"`
	} `json:"results"`
}

// serve starts internal/server on a loopback listener in this process.
func (in *instance) serve() error {
	srv := server.New(in.db)
	for _, vd := range in.w.views {
		if err := srv.DefineView(vd.name, vd.text); err != nil {
			return fmt.Errorf("server view %s: %w", vd.name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.httpSrv = &http.Server{Handler: srv.Handler()}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	in.baseURL = "http://" + ln.Addr().String()
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: in.w.clients}}
	in.requests = make([][]byte, len(in.w.round))
	for i, o := range in.w.round {
		if o.kind != opSearch {
			continue
		}
		body, err := json.Marshal(searchRequest{
			View: in.w.views[o.view].name, Keywords: o.kws, TopK: o.k,
			Cache: in.w.search.Cache, Parallelism: in.w.search.Parallelism,
		})
		if err != nil {
			return err
		}
		in.requests[i] = body
	}
	return nil
}

// close stops the server, waits for it, closes the database and removes
// the disk corpus.
func (in *instance) close() error {
	var errs []error
	if in.httpSrv != nil {
		in.client.CloseIdleConnections()
		errs = append(errs, in.httpSrv.Shutdown(context.Background()))
		if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, in.db.Close())
	if in.dir != "" {
		errs = append(errs, os.RemoveAll(in.dir))
	}
	return errors.Join(errs...)
}

// search runs round op i the way the workload's clients do: in process, or
// as an HTTP request. A served search decodes the reply only when asked to
// (the oracle's samples); otherwise it reads the body and drops it, so the
// client's own JSON decoding is not what the workload measures.
func (in *instance) search(i int, decode bool) ([]vxml.Result, error) {
	o := &in.w.round[i]
	if !in.w.served {
		opts := in.w.search
		opts.TopK = o.k
		res, _, err := in.db.Search(in.views[o.view], o.kws, &opts)
		return res, err
	}
	body, err := in.post("POST", "/v1/search", in.requests[i])
	if err != nil || !decode {
		return nil, err
	}
	return decodeResults(body)
}

// post sends one request and returns the body of a 200 reply.
func (in *instance) post(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, in.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := in.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, reply)
	}
	return reply, nil
}

func decodeResults(body []byte) ([]vxml.Result, error) {
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("decoding search reply: %w", err)
	}
	out := make([]vxml.Result, len(sr.Results))
	for i, r := range sr.Results {
		out[i] = vxml.Result{Rank: r.Rank, Score: r.Score, TF: r.TF, XML: r.XML, Snippet: r.Snippet}
	}
	return out, nil
}

// replace applies one Replace op, over HTTP on a served workload.
func (in *instance) replace(o *op) error {
	if !in.w.served {
		return in.db.Replace(o.doc, o.xml)
	}
	body, err := json.Marshal(struct {
		XML string `json:"xml"`
	}{o.xml})
	if err != nil {
		return err
	}
	_, err = in.post("PUT", "/v1/documents/"+o.doc, body)
	return err
}

// oracle is the independent pipeline a sampled answer is compared with:
// Baseline (materialise the whole view, then search it), uncached, on the
// same corpus state.
func (in *instance) oracle(o *op) ([]vxml.Result, error) {
	res, _, err := in.db.Search(in.views[o.view], o.kws, &vxml.Options{TopK: o.k, Approach: vxml.Baseline})
	return res, err
}

// sameResults is byte identity of rank, score, TF and XML — and of the
// snippet when both sides have one: the comparator pipelines, Baseline
// among them, return none by design.
func sameResults(a, b []vxml.Result, snippets bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Score != b[i].Score || a[i].XML != b[i].XML ||
			snippets && a[i].Snippet != b[i].Snippet || !reflect.DeepEqual(a[i].TF, b[i].TF) {
			return false
		}
	}
	return true
}

// sample is one stashed answer awaiting its oracle check.
type sample struct {
	op  *op
	res []vxml.Result
}

// phase accumulates the timed phase.
type phase struct {
	in   *instance
	host *hostClock
	// latencies are the per-search samples in host-normalised nanoseconds,
	// one preallocated slice per client. A sample is raw until the end of
	// its segment; done[c] says how many of client c's are normalised.
	latencies [][]uint32
	done      []int
	searches  atomic.Int64
	mu        sync.Mutex // guards the fields below under two clients
	stash     []sample
	checked   int // oracle comparisons made
	failed    int // errors + oracle mismatches
	replaces  int // in-run Replace ops
	// paused* is the time and allocation of oracle checks made inside a
	// segment or round, which its wall time and allocation leave out.
	paused      time.Duration
	pausedAlloc uint64
}

// maxSamples bounds the latency samples of one client; the timed phase
// ends early when a client's slice is full.
const maxSamples = 1 << 19

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// verify compares every stashed answer with the oracle and empties the
// stash. The corpus must not have changed since the answers were taken.
func (p *phase) verify() {
	for _, s := range p.stash {
		want, err := p.in.oracle(s.op)
		p.checked++
		if err != nil || !sameResults(s.res, want, false) {
			p.failed++
		}
	}
	p.stash = p.stash[:0]
}

// one runs round op i for the given client and records it.
func (p *phase) one(client, i int) {
	o := &p.in.w.round[i]
	if o.kind == opReplace {
		// The quiescent point: answers taken since the last replace are
		// checked against the state they were computed on, off the clock.
		p.mu.Lock()
		defer p.mu.Unlock()
		if len(p.stash) > 0 {
			t0, a0 := time.Now(), totalAlloc()
			p.verify()
			p.pausedAlloc += totalAlloc() - a0
			p.paused += time.Since(t0)
		}
		p.replaces++
		if err := p.in.replace(o); err != nil {
			p.failed++
		}
		return
	}
	sampled := p.searches.Add(1)%oracleEvery == 0
	t0 := time.Now()
	res, err := p.in.search(i, sampled)
	lat := time.Since(t0)
	p.latencies[client] = append(p.latencies[client], uint32(min(lat, time.Duration(^uint32(0)))))
	if err != nil || sampled {
		p.mu.Lock()
		if err != nil {
			p.failed++
		} else {
			p.stash = append(p.stash, sample{o, res})
		}
		p.mu.Unlock()
	}
}

// segment runs round ops lo to hi-1 on the workload's clients and returns
// the wall time, oracle pauses left out.
func (p *phase) segment(lo, hi int) time.Duration {
	p.paused = 0
	t0 := time.Now()
	if clients := p.in.w.clients; clients == 1 {
		for i := lo; i < hi; i++ {
			p.one(0, i)
		}
	} else {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < hi; i = int(next.Add(1)) - 1 {
					p.one(c, i)
				}
			}()
		}
		wg.Wait()
	}
	return time.Since(t0) - p.paused
}

// round runs the whole op batch once, segment by segment with the host
// clock read in between, and returns its host-normalised wall time in
// seconds and its allocated bytes, oracle pauses and the clock's own kernel
// left out of both.
func (p *phase) round() (wall float64, alloc uint64) {
	p.pausedAlloc = 0
	n := len(p.in.w.round)
	segs := min(p.in.w.segments, n)
	a0 := totalAlloc()
	for s := 0; s < segs; s++ {
		raw := p.segment(s*n/segs, (s+1)*n/segs)
		f := p.host.factor()
		wall += raw.Seconds() / f
		for c, l := range p.latencies {
			for i := p.done[c]; i < len(l); i++ {
				l[i] = uint32(min(float64(l[i])/f, float64(^uint32(0))))
			}
			p.done[c] = len(l)
		}
	}
	return wall, totalAlloc() - a0 - p.pausedAlloc - uint64(segs)*p.host.kernelAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	return total, err
}

// persistedBytes is what the workload's persistence format holds for the
// corpus: the disk store's data log and manifest, or the snapshot Save
// writes for a heap-resident database.
func (in *instance) persistedBytes(scratch string) (int64, error) {
	if st, ok := in.db.DiskStats(); ok {
		return st.DataBytes + st.ManifestBytes, nil
	}
	dir, err := os.MkdirTemp(scratch, in.w.name+"-save-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if err := in.db.Save(dir); err != nil {
		return 0, fmt.Errorf("Save: %w", err)
	}
	return dirBytes(dir)
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(cfg config) (res *result, err error) {
	var (
		w      *workload
		in     *instance
		setups []float64
	)
	host := newHostClock()
	defer func() {
		if in != nil {
			err = errors.Join(err, in.close())
		}
	}()
	// setup_s is everything from generating the inputs to the last warm-up
	// op, in host-normalised time. It is taken several times over and the
	// median reported, because one set-up is short enough for a single
	// hiccup to move it.
	for rep, reps := 0, 1; rep < reps; rep++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			in = nil
		}
		runtime.GC()
		host.mark()
		t0 := time.Now()
		if w, err = buildWorkload(cfg.workload, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		if reps = cfg.setups; reps == 0 {
			reps = w.setups
		}
		if in, err = setUp(w, cfg.scratch); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		raw := time.Since(t0).Seconds()
		setups = append(setups, raw/host.factor())
	}
	// The documents are ingested; their texts are inputs, not state of the
	// system under test, and would otherwise count in heap_live_mb.
	w.docs = nil

	p := &phase{in: in, host: host, latencies: make([][]uint32, w.clients), done: make([]int, w.clients)}
	for c := range p.latencies {
		p.latencies[c] = make([]uint32, 0, maxSamples)
	}
	p.stash = make([]sample, 0, 64)
	var roundRate, roundAllocKB []float64
	searchesPerRound := 0
	for _, o := range w.round {
		if o.kind == opSearch {
			searchesPerRound++
		}
	}
	runtime.GC()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	host.mark()
	start := time.Now()
	// Whole rounds, as many as come closest to the time asked for: another
	// one starts only if at least half of it would fit.
	more := func() bool {
		n := float64(len(roundRate))
		return n == 0 || time.Since(start).Seconds()*(1+0.5/n) < cfg.seconds
	}
	for full := false; !full && more(); {
		wall, alloc := p.round()
		roundRate = append(roundRate, float64(searchesPerRound)/wall)
		roundAllocKB = append(roundAllocKB, float64(alloc)/1024/float64(searchesPerRound))
		for _, l := range p.latencies {
			full = full || len(l)+searchesPerRound > cap(l)
		}
	}
	timed := time.Since(start)
	p.verify()
	p.stash = nil
	var gc1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc1)

	var all []uint32
	for _, l := range p.latencies {
		all = append(all, l...)
	}
	p.latencies = nil
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	// The write phase: sequential Replace ops on the churn documents, the
	// host clock read after every replaceSegment of them.
	churn := w.churnOps()
	replaceMs := make([]float64, 0, len(churn))
	host.mark()
	for lo := 0; lo < len(churn); lo += replaceSegment {
		for i := lo; i < min(lo+replaceSegment, len(churn)); i++ {
			t0 := time.Now()
			if err := in.replace(&churn[i]); err != nil {
				p.failed++
			}
			replaceMs = append(replaceMs, ms(time.Since(t0)))
		}
		f := host.factor()
		for i := lo; i < len(replaceMs); i++ {
			replaceMs[i] /= f
		}
	}
	// Once more after the writes: the replaced corpus must still answer
	// the workload's searches exactly.
	after := 0
	for i := 0; i < len(w.round) && after < 8; i++ {
		if w.round[i].kind != opSearch {
			continue
		}
		after++
		got, err := in.search(i, true)
		if err == nil {
			p.stash = append(p.stash, sample{&w.round[i], got})
		} else {
			p.failed++
		}
	}
	p.verify()
	stored, err := in.persistedBytes(cfg.scratch)
	if err != nil {
		return nil, err
	}

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("search_p50_ms", float64(quantile(all, 0.50))/1e6)
	m.set("search_p95_ms", float64(quantile(all, 0.95))/1e6)
	m.set("searches_per_s", median(roundRate))
	m.set("replace_p50_ms", median(replaceMs))
	m.set("alloc_kb_per_search", median(roundAllocKB))
	m.set("heap_live_mb", float64(gc1.HeapAlloc)/(1<<20))
	m.set("disk_bytes_per_input_byte", float64(stored)/float64(w.inputBytes))
	return &result{
		Workload:    w.name,
		Seed:        cfg.seed,
		InputSHA256: w.fingerprint(),
		InputBytes:  w.inputBytes,
		HostFactor:  host.mean(),
		Attempted:   len(all) + after + p.replaces + len(churn),
		Failed:      p.failed,
		Counts: map[string]int{
			"searches":       len(all),
			"rounds":         len(roundRate),
			"round_ops":      len(w.round),
			"in_run_replace": p.replaces,
			"replaces":       len(churn),
			"oracle_checks":  p.checked,
			"clients":        w.clients,
			"timed_ms":       int(timed.Milliseconds()),
			"gc_cycles":      int(gc1.NumGC - gc0.NumGC),
		},
		Metrics: m.values(),
	}, nil
}
