package benchkit

import (
	"fmt"
	"strconv"
	"time"
)

// Profile is a scale preset for a vxmlbench run: how big the generated
// corpora are and how long each sweep point measures. The sweep shapes are
// identical at every profile — only cost changes — so a tiny run and a
// large workstation run are directly comparable point by point.
type Profile struct {
	// Name is the -profile flag value.
	Name string
	// UnitBytes maps the paper's 100MB data unit to a byte size.
	UnitBytes int
	// Budget is the measurement loop budget per sweep point.
	Budget time.Duration
}

// ProfileByName resolves a -profile flag value to a built-in preset.
func ProfileByName(name string) (Profile, error) {
	for _, p := range []Profile{
		{Name: "tiny", UnitBytes: 32 << 10, Budget: 60 * time.Millisecond},
		{Name: "small", UnitBytes: 128 << 10, Budget: 150 * time.Millisecond},
		{Name: "medium", UnitBytes: 512 << 10, Budget: 300 * time.Millisecond},
		{Name: "large", UnitBytes: 1 << 20, Budget: 600 * time.Millisecond},
	} {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("benchkit: unknown profile %q (tiny, small, medium, large)", name)
}

// Point is one x-axis point of a figure: a label and the Table 1
// parameter it moves away from the default.
type Point struct {
	Label string
	Set   func(*Params)
}

// Figure is one of the paper's §5 evaluation figures: a sweep over one
// Table 1 parameter, measuring the Efficient pipeline at every point.
type Figure struct {
	// Name is the stable name vxmlbench lists and prints, "fig<number>_…".
	Name        string
	Description string
	Points      []Point
	// Comparators also times Baseline, GTP and Proj at every point and
	// reports Efficient's speedup over the first two (Figure 13).
	Comparators bool
}

// sweep builds one point per value, labelled by format.
func sweep[T any](format string, values []T, set func(*Params, T)) []Point {
	pts := make([]Point, len(values))
	for i, v := range values {
		pts[i] = Point{Label: fmt.Sprintf(format, v), Set: func(p *Params) { set(p, v) }}
	}
	return pts
}

// Figures returns the paper's Figures 13-21, in order.
func Figures() []Figure {
	size := func(p *Params, n int) { p.SizeUnits = n }
	return []Figure{
		{"fig13_approaches", "total run time of the four approaches (Efficient, Baseline, GTP, Proj) vs data size, with speedup ratios",
			sweep("size=%d", []int{1, 3, 5}, size), true},
		{"fig14_data_size", "Efficient module breakdown (PDT / eval / post) vs data size",
			sweep("size=%d", []int{1, 2, 3, 4, 5}, size), false},
		{"fig15_keywords", "Efficient module breakdown vs number of query keywords (1-5)",
			sweep("keywords=%d", []int{1, 2, 3, 4, 5}, func(p *Params, n int) { p.NumKeywords = n }), false},
		{"fig16_selectivity", "Efficient module breakdown vs keyword selectivity (low/medium/high)",
			sweep("selectivity=%s", []string{"low", "medium", "high"}, func(p *Params, s string) { p.Selectivity = s }), false},
		{"fig17_joins", "Efficient module breakdown vs number of value joins (0-4)",
			sweep("joins=%d", []int{0, 1, 2, 3, 4}, func(p *Params, n int) { p.NumJoins = n }), false},
		{"fig18_join_selectivity", "Efficient module breakdown vs join selectivity (1X down to 0.1X)",
			sweep("selectivity=%s", []string{"1X", "0.5X", "0.2X", "0.1X"}, func(p *Params, x string) {
				p.JoinPartitions = map[string]int{"1X": 1, "0.5X": 2, "0.2X": 5, "0.1X": 10}[x]
			}), false},
		{"fig19_nesting", "Efficient module breakdown vs view nesting level (1-4)",
			sweep("nesting=%d", []int{1, 2, 3, 4}, func(p *Params, n int) { p.Nesting = n }), false},
		{"fig20_topk", "Efficient module breakdown vs K in top-K",
			sweep("k=%d", []int{1, 10, 20, 30, 40}, func(p *Params, k int) { p.TopK = k }), false},
		{"fig21_elem_size", "Efficient run time and PDT size vs average view element size (§5.2.3 other results)",
			sweep("elemsize=%dX", []int{1, 2, 3, 4, 5}, func(p *Params, x int) { p.ElemSizeX = x }), false},
	}
}

var (
	efficientColumns = []string{"label", "iters", "ns/op", "allocs/op", "bytes/op", "bytes_fetched", "index_probes",
		"pdt_ns", "eval_ns", "post_ns", "pdt_nodes", "pdt_bytes", "view_results", "matched", "data_bytes"}
	comparatorColumns = []string{"baseline_ns", "gtp_ns", "proj_ns", "speedup_vs_baseline", "speedup_vs_gtp"}
)

// Run measures every point of the figure at the profile's scale and
// returns its text table: one row per point with Efficient's measurement,
// the base-data bytes and index probes per search, and the module
// breakdown of the last search.
func (f Figure) Run(prof Profile, seed int64) (*Table, error) {
	t := &Table{Title: f.Name + ": " + f.Description, Columns: efficientColumns}
	if f.Comparators {
		t.Columns = append(t.Columns[:len(t.Columns):len(t.Columns)], comparatorColumns...)
	}
	for _, pt := range f.Points {
		p := Default()
		p.UnitBytes, p.Seed = prof.UnitBytes, seed
		pt.Set(&p)
		w, err := Build(p)
		if err != nil {
			return nil, err
		}
		row, ns, err := efficientRow(w, prof.Budget)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s %s: %w", f.Name, pt.Label, err)
		}
		if f.Comparators {
			if row, err = comparatorRow(w, prof.Budget, row, ns); err != nil {
				return nil, fmt.Errorf("benchkit: %s %s: %w", f.Name, pt.Label, err)
			}
		}
		t.Rows = append(t.Rows, append([]string{pt.Label}, row...))
	}
	return t, nil
}

// efficientRow measures the Efficient pipeline on one workload and
// returns the row's cells after the label, and the ns/op.
func efficientRow(w *Workload, budget time.Duration) ([]string, float64, error) {
	last, err := w.RunEfficient()
	if err != nil {
		return nil, 0, err
	}
	bytesBefore := w.Engine.Store.BytesFetched()
	pp0, kl0 := w.Engine.IndexProbes()
	m := Measure(budget, func() {
		if s, err := w.RunEfficient(); err == nil {
			last = s
		}
	})
	bytesAfter := w.Engine.Store.BytesFetched()
	pp1, kl1 := w.Engine.IndexProbes()
	runs := float64(m.Iters + 1) // the counters also saw Measure's warm-up run
	return []string{
		strconv.Itoa(m.Iters), num(m.NsPerOp), num(m.AllocsPerOp), num(m.BytesPerOp),
		num(float64(bytesAfter-bytesBefore) / runs), num(float64(pp1-pp0+kl1-kl0) / runs),
		strconv.FormatInt(last.PDTTime.Nanoseconds(), 10),
		strconv.FormatInt(last.EvalTime.Nanoseconds(), 10),
		strconv.FormatInt(last.PostTime.Nanoseconds(), 10),
		strconv.Itoa(last.PDTNodes), strconv.Itoa(last.PDTBytes),
		strconv.Itoa(last.ViewResults), strconv.Itoa(last.Matched),
		strconv.Itoa(w.Engine.Store.TotalBytes()),
	}, m.NsPerOp, nil
}

// comparatorRow appends Figure 13's comparator times to row, and
// Efficient's speedup (efficientNs) over Baseline and GTP.
func comparatorRow(w *Workload, budget time.Duration, row []string, efficientNs float64) ([]string, error) {
	if _, err := w.RunBaseline(); err != nil {
		return nil, err
	}
	base := Measure(budget, func() { w.RunBaseline() }) //nolint:errcheck // pre-flighted above
	if _, err := w.RunGTP(); err != nil {
		return nil, err
	}
	gtp := Measure(budget, func() { w.RunGTP() }) //nolint:errcheck // pre-flighted above
	proj := Measure(budget, func() { w.RunProj() })
	return append(row, num(base.NsPerOp), num(gtp.NsPerOp), num(proj.NsPerOp),
		num(base.NsPerOp/efficientNs), num(gtp.NsPerOp/efficientNs)), nil
}
