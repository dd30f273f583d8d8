package main

import (
	"math"
	"regexp"
	"testing"

	"vxml"
)

// smokeConfig shrinks a workload to a fiftieth: the point is that every
// path runs and every metric is emitted, not the numbers.
func smokeConfig(t *testing.T, workload string) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 7, seconds: 0.05, scale: 0.02, setups: 1, scratch: dir, out: dir}
}

// TestSmokeAndDrift runs all four workloads, end to end and traced, and
// holds what they emit to BENCHMARK.json in both directions.
func TestSmokeAndDrift(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %v", len(sp.Workloads), workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, res *result, want []specMetric) {
		t.Helper()
		if res.Failed != 0 {
			t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
		}
		if res.Attempted < 1 {
			t.Errorf("attempted = %d", res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("metric name %q breaks the naming rule", m.Name)
			case !ok:
				t.Errorf("metric %s is in BENCHMARK.json but was not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s = %v", m.Name, got.Value)
			}
		}
	}
	for i, wl := range sp.Workloads {
		if wl.Name != workloadNames[i] || !nameRE.MatchString(wl.Name) {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, wl.Name, workloadNames[i])
		}
		t.Run(wl.Name, func(t *testing.T) {
			res, err := runEndToEnd(smokeConfig(t, wl.Name))
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, sp.EndToEnd)
			for _, m := range sp.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if res, err = runTraced(smokeConfig(t, wl.Name)); err != nil {
				t.Fatal(err)
			}
			check(t, res, sp.PerLayer)
		})
	}
}

// TestOracleCountsCorruptAnswer corrupts one sampled answer and expects
// the oracle to count it — a mismatch is a number, not a log line.
func TestOracleCountsCorruptAnswer(t *testing.T) {
	w, err := buildWorkload("direct_join", 7, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setUp(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	p := &phase{in: in}
	for i := range w.round {
		res, err := in.search(i, true)
		if err != nil {
			t.Fatal(err)
		}
		p.stash = append(p.stash, sample{&w.round[i], res})
	}
	corrupted := false
	for _, s := range p.stash {
		if len(s.res) > 0 {
			s.res[0].XML += " "
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no search of the round returned a result to corrupt")
	}
	p.verify()
	if p.checked != len(w.round) || p.failed != 1 {
		t.Fatalf("checked %d answers and counted %d failures; want %d and 1", p.checked, p.failed, len(w.round))
	}
}

func TestSameResults(t *testing.T) {
	a := []vxml.Result{{Rank: 1, Score: 0.5, TF: map[string]int{"x": 2}, XML: "<a/>", Snippet: "s"}}
	b := []vxml.Result{{Rank: 1, Score: 0.5, TF: map[string]int{"x": 2}, XML: "<a/>"}}
	if !sameResults(a, b, false) || sameResults(a, b, true) {
		t.Fatal("snippets must count only when asked for")
	}
	b[0].TF = map[string]int{"x": 3}
	if sameResults(a, b, false) {
		t.Fatal("a TF difference went unnoticed")
	}
}

// TestInputsFollowSeed: same seed, same inputs; another seed, others.
func TestInputsFollowSeed(t *testing.T) {
	for _, name := range workloadNames {
		sum := func(seed int64) string {
			w, err := buildWorkload(name, seed, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			return w.fingerprint()
		}
		if sum(1) != sum(1) {
			t.Errorf("%s: one seed gave two inputs", name)
		}
		if sum(1) == sum(2) {
			t.Errorf("%s: two seeds gave one input", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v; want 2.5", m)
	}
	if q := quantile([]uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); q != 10 {
		t.Fatalf("p95 of ten samples = %v; want the largest", q)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "search_p50_ms", Better: "lower", Bound: 0.07}
	higher := specMetric{Name: "searches_per_s", Better: "higher", Bound: 0.07}
	tight := func(med float64) side { return side{med: med, q1: med * 0.99, q3: med * 1.01, n: 3} }
	wide := func(med float64) side { return side{med: med, q1: med * 0.9, q3: med * 1.1, n: 3} }
	for _, c := range []struct {
		a, b side
		m    specMetric
		want string
	}{
		{tight(10), tight(10.5), lower, "ok"},
		{tight(10), tight(11), lower, "worse"},
		{tight(10), tight(9), lower, "better"},
		{tight(10), tight(9), higher, "worse"},
		{tight(10), wide(10.2), lower, "unresolved"},
		{tight(10), wide(11.5), lower, "unresolved"},
		{tight(10), wide(13), lower, "worse"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%v -> %v on %s: verdict %s, want %s", c.a.med, c.b.med, c.m.Name, got, c.want)
		}
	}
}

// TestHostClock: the kernel does the same work every time, and a factor is
// the mean of the readings at the two ends of its interval.
func TestHostClock(t *testing.T) {
	h := newHostClock()
	if h.kernelAlloc == 0 {
		t.Fatal("the kernel's allocation was not metered")
	}
	a0 := totalAlloc()
	h.mark()
	if got := float64(totalAlloc() - a0); math.Abs(got/float64(h.kernelAlloc)-1) > 1e-3 {
		t.Fatalf("a boundary allocated %d bytes, then %v: the kernel is not a fixed piece of work", h.kernelAlloc, got)
	}
	before := h.last
	if f := h.factor(); f <= 0 || f != (before+h.last)/2 || h.mean() != f {
		t.Fatalf("factor %v from readings %v and %v (mean %v)", f, before, h.last, h.mean())
	}
}
