// The runner: executes a Spec phase by phase against a live server,
// pacing arrivals open- or closed-loop, running the churner underneath,
// sampling process ceilings, and folding everything into a vxmlload/1
// Report.
package loadkit

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxFailures caps the failure records a report carries; maxExplains caps
// how many of them get a plan captured (each capture is a live request).
const (
	maxFailures = 16
	maxExplains = 8
)

// drainWait bounds how long the runner waits for the goroutine count to
// return to baseline after traffic stops; drainSlack is the tolerated
// residue (timer and netpoll goroutines wind down asynchronously).
const (
	drainWait  = 5 * time.Second
	drainSlack = 3
)

// Runner executes one Spec. Target must point at a live server already
// holding the spec's corpus and views (SelfServe provides one);
// TargetLabel is what the report calls it ("self" or the URL).
type Runner struct {
	Spec        *Spec
	Target      string
	TargetLabel string
	// DurationScale multiplies phase durations, RateScale arrival rates;
	// 0 means 1. CI runs committed specs scaled down.
	DurationScale float64
	RateScale     float64
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

func (r *Runner) durationScale() float64 {
	if r.DurationScale <= 0 {
		return 1
	}
	return r.DurationScale
}

func (r *Runner) rateScale() float64 {
	if r.RateScale <= 0 {
		return 1
	}
	return r.RateScale
}

// opOutcome is what one executed op reports back to the collector.
type opOutcome struct {
	op        string
	latency   time.Duration
	completed bool // a response arrived; latency is meaningful
	failed    bool
	dropped   bool             // the runner's own shutdown cut it — keep it off the books
	errKey    string           // taxonomy key when failed
	failure   *Failure         // detailed record, when worth keeping
	template  *RequestTemplate // identity for explain capture
}

// collector aggregates outcomes across workers. One mutex is plenty: the
// harness's request rates are orders of magnitude below what a single
// uncontended lock sustains.
type collector struct {
	mu         sync.Mutex
	phaseOrder []string
	phases     map[string]*phaseAgg
	overall    Histogram
	reqs, errs int64
	taxonomy   map[string]int64
	failures   []Failure
	explains   int
}

// phaseAgg is one phase's accumulation.
type phaseAgg struct {
	hist       Histogram
	reqs, errs int64
	ops        map[string]*opAgg
}

// opAgg is one op kind's share of a phase.
type opAgg struct {
	hist       Histogram
	reqs, errs int64
}

func newCollector() *collector {
	return &collector{phases: map[string]*phaseAgg{}, taxonomy: map[string]int64{}}
}

func (c *collector) phase(name string) *phaseAgg {
	p := c.phases[name]
	if p == nil {
		p = &phaseAgg{ops: map[string]*opAgg{}}
		c.phases[name] = p
		c.phaseOrder = append(c.phaseOrder, name)
	}
	return p
}

// record folds one outcome into the phase, op and overall aggregates.
func (c *collector) record(phase string, out opOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.phase(phase)
	op := p.ops[out.op]
	if op == nil {
		op = &opAgg{}
		p.ops[out.op] = op
	}
	p.reqs++
	op.reqs++
	c.reqs++
	if out.completed {
		micros := out.latency.Microseconds()
		p.hist.Record(micros)
		op.hist.Record(micros)
		c.overall.Record(micros)
	}
	if out.failed {
		p.errs++
		op.errs++
		c.errs++
		if out.errKey != "" {
			c.taxonomy[out.errKey]++
		}
		if out.failure != nil && len(c.failures) < maxFailures {
			c.failures = append(c.failures, *out.failure)
		}
	}
}

// count bumps one taxonomy key outside the per-request path (churner,
// spot checks).
func (c *collector) count(key string) {
	c.mu.Lock()
	c.taxonomy[key]++
	c.mu.Unlock()
}

// addFailure records a failure from outside the per-request path.
func (c *collector) addFailure(f Failure) {
	c.mu.Lock()
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, f)
	}
	c.mu.Unlock()
}

// takeExplainSlot reserves one of the bounded explain captures; the
// caller only issues the /v1/explain request when it returns true.
func (c *collector) takeExplainSlot() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.explains >= maxExplains {
		return false
	}
	c.explains++
	return true
}

// mixPicker deals op kinds deterministically in weight proportion: a
// 64-slot schedule indexed by sequence number, so two runs of one spec
// shape identical traffic without shared RNG state or locks.
type mixPicker struct {
	schedule []string
}

func newMixPicker(mix map[string]float64) *mixPicker {
	// Deterministic kind order (map iteration is not).
	kinds := make([]string, 0, len(mix))
	for _, k := range []string{"search", "stream", "paginate", "pathological", "write"} {
		if mix[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	total := 0.0
	for _, k := range kinds {
		total += mix[k]
	}
	var schedule []string
	for _, k := range kinds {
		n := int(mix[k] / total * 64)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			schedule = append(schedule, k)
		}
	}
	// Interleave by striding the concatenated blocks with a step coprime
	// to the length, so one kind does not monopolize long runs.
	out := make([]string, len(schedule))
	step := 13
	for gcd(step, len(schedule)) != 1 {
		step++
	}
	for i := range schedule {
		out[i] = schedule[(i*step)%len(schedule)]
	}
	return &mixPicker{schedule: out}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (m *mixPicker) pick(seq int64) string {
	return m.schedule[int(seq%int64(len(m.schedule)))]
}

// sampler polls process ceilings while traffic runs.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples int
	maxG    int
	maxHeap uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				s.samples++
				if g := runtime.NumGoroutine(); g > s.maxG {
					s.maxG = g
				}
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.maxHeap {
					s.maxHeap = ms.HeapAlloc
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() (samples, maxG int, maxHeap uint64) {
	close(s.stop)
	<-s.done
	return s.samples, s.maxG, s.maxHeap
}

// Run executes the spec and returns its report. It fails only on harness
// breakage (a dead target, a context cancellation); serving misbehavior —
// 5xx, oracle mismatches, unexpected pathological acceptance — lands in
// the report's error taxonomy and failure records instead, and the caller
// decides what fails the build.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if r.Spec == nil || r.Target == "" {
		return nil, fmt.Errorf("loadkit: runner needs a Spec and a Target")
	}
	spec := r.Spec
	started := time.Now()
	baselineG := runtime.NumGoroutine()
	client := NewClient(r.Target, maxPhaseClients(spec))
	defer client.Close()
	if err := client.WaitReady(ctx, 15*time.Second); err != nil {
		return nil, err
	}

	col := newCollector()
	smp := startSampler()

	// The churner spans every phase: mutation churn is background weather,
	// not a phase of its own.
	churnCtx, stopChurn := context.WithCancel(ctx)
	defer stopChurn()
	var churnDone chan *SoakReport
	if spec.Churn != nil {
		var oracle *Oracle
		if spec.Churn.SpotCheckEvery > 0 {
			var err error
			if oracle, err = NewOracle(spec); err != nil {
				return nil, err
			}
		}
		churnDone = make(chan *SoakReport, 1)
		go r.churn(churnCtx, client, oracle, col, churnDone)
	}

	var seq atomic.Int64
	phaseDurations := map[string]time.Duration{}
	for _, ph := range spec.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d := time.Duration(float64(time.Duration(ph.Duration)) * r.durationScale())
		if d < 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		phaseDurations[ph.Name] = d
		r.logf("phase %s: %s, %d clients, rate=%.0f/s mix=%v", ph.Name, d, ph.Clients, ph.Rate*r.rateScale(), ph.Mix)
		r.runPhase(ctx, ph, d, client, col, &seq)
	}

	// Drain: stop churn, then wait for the goroutine count to settle.
	stopChurn()
	var soak *SoakReport
	if churnDone != nil {
		soak = <-churnDone
	}
	samples, maxG, maxHeap := smp.finish()
	client.Close()
	afterG := waitForDrain(baselineG)

	if maxG < baselineG {
		maxG = baselineG
	}
	report := &Report{
		Schema:        SchemaVersion,
		Spec:          spec.Name,
		Description:   spec.Description,
		GeneratedBy:   "vxmlload",
		Target:        r.TargetLabel,
		DurationScale: r.durationScale(),
		RateScale:     r.rateScale(),
		Host:          hostInfo(),
		Resources: Resources{
			Samples:              samples,
			GoroutinesBaseline:   baselineG,
			GoroutinesMax:        maxG,
			GoroutinesAfterDrain: afterG,
			DrainedToBaseline:    afterG <= baselineG+drainSlack,
			HeapBytesMax:         maxHeap,
		},
		Soak: soak,
	}
	if report.Target == "" {
		report.Target = r.Target
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	var totalDur time.Duration
	for _, name := range col.phaseOrder {
		p := col.phases[name]
		d := phaseDurations[name]
		if d <= 0 {
			d = time.Millisecond // churn pseudo-phase: counts only
		}
		totalDur += d
		pr := PhaseReport{
			Name:           name,
			DurationMillis: d.Milliseconds(),
			Totals: Totals{
				Requests: p.reqs,
				Errors:   p.errs,
				QPS:      float64(p.hist.Count()) / d.Seconds(),
				Latency:  p.hist.Summary(),
			},
			Ops: map[string]OpStats{},
		}
		for kind, op := range p.ops {
			pr.Ops[kind] = OpStats{Requests: op.reqs, Errors: op.errs, Latency: op.hist.Summary()}
		}
		report.Phases = append(report.Phases, pr)
	}
	report.Overall = Totals{
		Requests: col.reqs,
		Errors:   col.errs,
		QPS:      float64(col.overall.Count()) / totalDur.Seconds(),
		Latency:  col.overall.Summary(),
	}
	if len(col.taxonomy) > 0 {
		report.Errors = map[string]int64{}
		for k, v := range col.taxonomy {
			report.Errors[k] = v
		}
	}
	report.Failures = append(report.Failures, col.failures...)
	report.DurationMillis = time.Since(started).Milliseconds()
	return report, nil
}

// maxPhaseClients sizes the connection pool to the busiest phase.
func maxPhaseClients(spec *Spec) int {
	max := 1
	for _, p := range spec.Phases {
		if p.Clients > max {
			max = p.Clients
		}
	}
	return max
}

// waitForDrain polls the goroutine count until it returns to (near)
// baseline or the wait expires, and reports the final count.
func waitForDrain(baseline int) int {
	deadline := time.Now().Add(drainWait)
	g := runtime.NumGoroutine()
	for g > baseline+drainSlack && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		g = runtime.NumGoroutine()
	}
	return g
}

// runPhase shapes one phase's traffic: closed-loop when Rate is 0 (each
// client re-fires on completion), open-loop otherwise (a scheduler paces
// arrivals at the — possibly ramping — rate, and latency is measured from
// the scheduled arrival, so a saturated server's queueing delay lands in
// the histogram instead of being coordinated away).
func (r *Runner) runPhase(ctx context.Context, ph Phase, d time.Duration, client *Client, col *collector, seq *atomic.Int64) {
	picker := newMixPicker(ph.Mix)
	deadline := time.Now().Add(d)
	phCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	if ph.Rate <= 0 {
		var wg sync.WaitGroup
		for i := 0; i < ph.Clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for phCtx.Err() == nil && time.Now().Before(deadline) {
					n := seq.Add(1)
					start := time.Now()
					out := r.executeOp(phCtx, client, picker.pick(n), n)
					out.latency = time.Since(start)
					r.finishOp(phCtx, client, col, ph.Name, out)
				}
			}()
		}
		wg.Wait()
		return
	}

	jobs := make(chan time.Time, ph.Clients*2)
	var wg sync.WaitGroup
	for i := 0; i < ph.Clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for scheduled := range jobs {
				n := seq.Add(1)
				out := r.executeOp(phCtx, client, picker.pick(n), n)
				out.latency = time.Since(scheduled)
				r.finishOp(phCtx, client, col, ph.Name, out)
			}
		}()
	}

	startRate := ph.Rate * r.rateScale()
	endRate := startRate
	if ph.RateEnd > 0 {
		endRate = ph.RateEnd * r.rateScale()
	}
	phaseStart := time.Now()
	next := phaseStart
	for {
		frac := float64(time.Since(phaseStart)) / float64(d)
		if frac > 1 {
			break
		}
		rate := startRate + (endRate-startRate)*frac
		if rate < 0.5 {
			rate = 0.5
		}
		next = next.Add(time.Duration(float64(time.Second) / rate))
		if next.After(deadline) {
			break
		}
		if sleep := time.Until(next); sleep > 0 {
			time.Sleep(sleep)
		}
		select {
		case jobs <- next:
		case <-phCtx.Done():
			close(jobs)
			wg.Wait()
			return
		}
	}
	close(jobs)
	wg.Wait()
}

// finishOp attaches the (budgeted) execution trace to a flagged request
// and records the outcome.
func (r *Runner) finishOp(ctx context.Context, client *Client, col *collector, phase string, out opOutcome) {
	if out.dropped {
		return
	}
	if out.failure != nil {
		out.failure.Phase = phase
		if out.template != nil && col.takeExplainSlot() {
			out.failure.Explain = client.Explain(ctx, *out.template)
		}
	}
	col.record(phase, out)
}

// executeOp issues one request of the given kind. The returned outcome's
// latency is filled by the caller (closed-loop: service time; open-loop:
// scheduled-arrival to completion).
func (r *Runner) executeOp(ctx context.Context, client *Client, kind string, n int64) opOutcome {
	out := opOutcome{op: kind}
	templates := r.Spec.Requests
	switch kind {
	case "search", "paginate", "write":
		// handled below
	case "stream":
		tmpl := templates[int(n)%len(templates)]
		res, err := client.Stream(ctx, tmpl)
		out.template = &tmpl
		switch {
		case err != nil:
			r.transportOutcome(ctx, &out, err)
		case res.ErrorLine != "":
			out.completed, out.failed, out.errKey = true, true, "stream_error_line"
			out.failure = &Failure{Op: kind, Status: res.Status,
				Error:   "in-band stream error: " + res.ErrorLine,
				Request: string(searchBody(tmpl))}
		case res.Status != http.StatusOK:
			r.statusOutcome(&out, kind, res.Status, tmpl)
		default:
			out.completed = true
		}
		return out
	case "pathological":
		name, status, err := client.Pathological(ctx, int(n))
		switch {
		case err != nil:
			r.transportOutcome(ctx, &out, err)
		case status < 400 || status > 499:
			out.completed, out.failed, out.errKey = true, true, "pathological_unexpected"
			out.failure = &Failure{Op: kind, Status: status,
				Error: fmt.Sprintf("pathological request %q drew %d, want a 4xx rejection", name, status)}
		default:
			out.completed = true
		}
		return out
	default:
		out.failed, out.errKey = true, "unknown_op"
		return out
	}

	if kind == "write" {
		doc := "books.xml"
		if n%2 == 1 && r.Spec.Corpus.Books > 0 {
			doc = "reviews.xml"
		}
		status, err := client.Replace(ctx, doc, churnContent(r.Spec.Corpus, doc, n))
		switch {
		case err != nil:
			r.transportOutcome(ctx, &out, err)
		case status != http.StatusOK:
			out.completed, out.failed, out.errKey = true, true, fmt.Sprintf("http_%d", status)
			out.failure = &Failure{Op: kind, Status: status, Error: fmt.Sprintf("replace %s answered %d", doc, status)}
		default:
			out.completed = true
		}
		return out
	}

	tmpl := templates[int(n)%len(templates)]
	if kind == "paginate" {
		if tmpl.TopK == 0 {
			tmpl.TopK = 5
		}
		tmpl.Offset = int(1+n%3) * tmpl.TopK
	}
	out.template = &tmpl
	status, _, err := client.Search(ctx, tmpl)
	switch {
	case err != nil:
		r.transportOutcome(ctx, &out, err)
	case status != http.StatusOK:
		r.statusOutcome(&out, kind, status, tmpl)
	default:
		out.completed = true
	}
	return out
}

// transportOutcome classifies a request that never got a response. A
// phase-deadline cancellation is the runner's own doing, not a serving
// failure — it is dropped from the books entirely.
func (r *Runner) transportOutcome(ctx context.Context, out *opOutcome, err error) {
	if ctx.Err() != nil {
		out.dropped = true
		return
	}
	out.failed, out.errKey = true, "transport"
	out.failure = &Failure{Op: out.op, Error: err.Error()}
	out.template = nil // no point explaining a request that never arrived
}

// statusOutcome classifies an unexpected HTTP status on a well-formed
// request.
func (r *Runner) statusOutcome(out *opOutcome, kind string, status int, tmpl RequestTemplate) {
	out.completed, out.failed = true, true
	out.errKey = fmt.Sprintf("http_%d", status)
	out.failure = &Failure{Op: kind, Status: status,
		Error:   fmt.Sprintf("%s answered %d to a well-formed request", kind, status),
		Request: string(searchBody(tmpl))}
}

// churn is the single-threaded mutation loop: every interval it replaces
// (or deletes and re-adds) one of the configured documents with
// deterministically regenerated content, mirrors each acknowledged
// mutation into the oracle, and periodically pauses to byte-compare a
// live response against the oracle's sequential answer.
func (r *Runner) churn(ctx context.Context, client *Client, oracle *Oracle, col *collector, done chan<- *SoakReport) {
	spec := r.Spec
	cfg := spec.Churn
	soak := &SoakReport{}
	// A churn op that fails (or whose ack never arrived) leaves the
	// server and the oracle potentially divergent; spot checks stop, the
	// taint is recorded, and the churn keeps running — mutation load is
	// still load.
	tainted := false
	ticker := time.NewTicker(time.Duration(cfg.Interval))
	defer ticker.Stop()
	defer func() { done <- soak }()
	for i := int64(0); ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		doc := cfg.Documents[int(i)%len(cfg.Documents)]
		content := churnContent(spec.Corpus, doc, i)
		if cfg.DeleteEvery > 0 && (i+1)%int64(cfg.DeleteEvery) == 0 {
			if !r.churnDelete(ctx, client, oracle, col, soak, &tainted, doc, content) {
				return
			}
		} else {
			if !r.churnReplace(ctx, client, oracle, col, soak, &tainted, doc, content) {
				return
			}
		}
		soak.ChurnOps++
		if oracle != nil && !tainted && cfg.SpotCheckEvery > 0 && (i+1)%int64(cfg.SpotCheckEvery) == 0 {
			r.spotCheck(ctx, client, oracle, col, soak, i)
		}
	}
}

// churnReplace replaces doc on the server and mirrors it on success; it
// reports false only when the run is shutting down.
func (r *Runner) churnReplace(ctx context.Context, client *Client, oracle *Oracle, col *collector, soak *SoakReport, tainted *bool, doc, content string) bool {
	status, err := client.Replace(ctx, doc, content)
	if err != nil {
		if ctx.Err() != nil {
			return false
		}
		*tainted = true
		col.count("transport")
		col.addFailure(Failure{Op: "churn_replace", Phase: "churn", Error: err.Error()})
		return true
	}
	if status != http.StatusOK {
		*tainted = true
		col.count(fmt.Sprintf("http_%d", status))
		col.addFailure(Failure{Op: "churn_replace", Phase: "churn", Status: status,
			Error: fmt.Sprintf("replace %s answered %d", doc, status)})
		return true
	}
	soak.Replaces++
	if oracle != nil {
		if err := oracle.Replace(doc, content); err != nil {
			*tainted = true
			col.addFailure(Failure{Op: "churn_replace", Phase: "churn", Error: "oracle replace: " + err.Error()})
		}
	}
	return true
}

// churnDelete deletes doc and re-adds it with fresh content, mirroring
// both ops; it reports false only when the run is shutting down.
func (r *Runner) churnDelete(ctx context.Context, client *Client, oracle *Oracle, col *collector, soak *SoakReport, tainted *bool, doc, content string) bool {
	status, err := client.Delete(ctx, doc)
	if err != nil || status != http.StatusOK {
		if ctx.Err() != nil {
			return false
		}
		*tainted = true
		key := "transport"
		if err == nil {
			key = fmt.Sprintf("http_%d", status)
		}
		col.count(key)
		col.addFailure(Failure{Op: "churn_delete", Phase: "churn", Status: status,
			Error: fmt.Sprintf("delete %s: status %d err %v", doc, status, err)})
		return true
	}
	soak.Deletes++
	if oracle != nil {
		if err := oracle.Delete(doc); err != nil {
			*tainted = true
			col.addFailure(Failure{Op: "churn_delete", Phase: "churn", Error: "oracle delete: " + err.Error()})
		}
	}
	status, err = client.Add(ctx, doc, content)
	if err != nil || status != http.StatusCreated {
		if ctx.Err() != nil {
			return false
		}
		*tainted = true
		key := "transport"
		if err == nil {
			key = fmt.Sprintf("http_%d", status)
		}
		col.count(key)
		col.addFailure(Failure{Op: "churn_readd", Phase: "churn", Status: status,
			Error: fmt.Sprintf("re-add %s: status %d err %v", doc, status, err)})
		return true
	}
	if oracle != nil {
		if err := oracle.Add(doc, content); err != nil {
			*tainted = true
			col.addFailure(Failure{Op: "churn_readd", Phase: "churn", Error: "oracle add: " + err.Error()})
		}
	}
	return true
}

// spotCheck byte-compares one live search against the oracle. It runs on
// the churner goroutine with no mutation in flight, so the corpus state
// is exactly the mutation sequence both sides have applied — any byte of
// divergence is a serving bug, and gets the execution trace attached.
func (r *Runner) spotCheck(ctx context.Context, client *Client, oracle *Oracle, col *collector, soak *SoakReport, i int64) {
	tmpl := r.Spec.Requests[int(i)%len(r.Spec.Requests)]
	status, results, err := client.Search(ctx, tmpl)
	if err != nil {
		if ctx.Err() == nil {
			col.count("transport")
		}
		return
	}
	soak.SpotChecks++
	if status != http.StatusOK {
		soak.Mismatches++
		col.count(fmt.Sprintf("http_%d", status))
		col.addFailure(Failure{Op: "spot_check", Phase: "churn", Status: status,
			Error:   fmt.Sprintf("spot check answered %d", status),
			Request: string(searchBody(tmpl))})
		return
	}
	diff, err := oracle.Compare(tmpl, results)
	if err != nil {
		soak.Mismatches++
		col.count("oracle_mismatch")
		col.addFailure(Failure{Op: "spot_check", Phase: "churn", Error: err.Error(),
			Request: string(searchBody(tmpl))})
		return
	}
	if diff != "" {
		soak.Mismatches++
		col.count("oracle_mismatch")
		f := Failure{Op: "spot_check", Phase: "churn",
			Error:   "response diverged from the single-threaded oracle: " + diff,
			Request: string(searchBody(tmpl))}
		if col.takeExplainSlot() {
			f.Explain = client.Explain(ctx, tmpl)
		}
		col.addFailure(f)
	}
}
