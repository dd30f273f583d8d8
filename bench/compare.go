package main

// Comparing two sets of runs: one row per (workload, end-to-end metric)
// with both medians and quartiles, the relative change, the metric's bound
// from BENCHMARK.json and a verdict. -aa feeds two sets of runs of the same
// code through the same comparison.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, where run.sh runs) or its parent (where go test runs).
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func compareFiles(a, b string) error {
	ra, err := readResults(a)
	if err != nil {
		return err
	}
	rb, err := readResults(b)
	if err != nil {
		return err
	}
	return compareSets(ra, rb)
}

// side is one set's values of one metric on one workload.
type side struct {
	med, q1, q3 float64
	n           int
}

func sideOf(rf *resultsFile, workload, metric string) side {
	var vals []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vals = append(vals, v.Value)
		}
	}
	q1, q3 := quartiles(vals)
	return side{med: median(vals), q1: q1, q3: q3, n: len(vals)}
}

// spread is the interquartile range as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// verdict judges b against a by the relative change of the median in the
// direction that is worse for the metric. A change within the bound is ok,
// one beyond it better or worse — unless the runs of either side spread
// wider than what is being decided, which leaves it unresolved.
func verdict(a, b side, m specMetric) string {
	worsening := 0.0
	if a.med != 0 {
		worsening = (b.med - a.med) / math.Abs(a.med)
	}
	if m.Better == "higher" {
		worsening = -worsening
	}
	spread := max(a.spread(), b.spread())
	switch {
	case math.Abs(worsening) <= m.Bound && spread <= m.Bound:
		return "ok"
	case math.Abs(worsening) <= max(m.Bound, spread):
		return "unresolved"
	case worsening > 0:
		return "worse"
	}
	return "better"
}

func failedFrac(rf *resultsFile, workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range rf.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareSets prints the comparison table and fails on any worse row or
// any rise in failed_frac.
func compareSets(a, b *resultsFile) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-26s %12s %21s %12s %21s %8s %6s  %s\n",
		"workload", "metric", "a.median", "a.quartiles", "b.median", "b.quartiles", "change", "bound", "verdict")
	bad := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			sa, sb := sideOf(a, wl.Name, m.Name), sideOf(b, wl.Name, m.Name)
			if sa.n == 0 || sb.n == 0 {
				fmt.Printf("%-18s %-26s missing (a has %d runs, b has %d)\n", wl.Name, m.Name, sa.n, sb.n)
				bad++
				continue
			}
			v := verdict(sa, sb, m)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-18s %-26s %12.4f [%9.4f %9.4f] %12.4f [%9.4f %9.4f] %+7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3,
				100*(sb.med-sa.med)/math.Abs(sa.med), 100*m.Bound, v)
		}
		fa, fb := failedFrac(a, wl.Name), failedFrac(b, wl.Name)
		v := "ok"
		if fb > fa {
			v = "worse"
			bad++
		}
		fmt.Printf("%-18s %-26s %12.6f %21s %12.6f %21s %8s %6s  %s\n", wl.Name, "failed_frac", fa, "", fb, "", "", "0", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse or missing", bad)
	}
	return nil
}
