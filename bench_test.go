// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark measures one pipeline/configuration; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or cmd/vxmlbench for the same figures as text tables
// plus a machine-readable report (the fig13_approaches … fig21_elem_size
// scenarios).
// One paper data unit (100MB) maps to benchUnit bytes so the sweeps keep
// their shape at test scale.
package vxml_test

import (
	"fmt"
	"testing"

	"vxml/internal/benchkit"
	"vxml/internal/core"
)

// benchUnit is the bench-scale stand-in for the paper's 100MB unit.
const benchUnit = 128 << 10

func benchParams() benchkit.Params {
	p := benchkit.Default()
	p.UnitBytes = benchUnit
	return p
}

func buildWorkload(b *testing.B, p benchkit.Params) *benchkit.Workload {
	b.Helper()
	w, err := benchkit.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFig13 compares the four approaches while varying data size
// (Figure 13; Baseline/GTP/Proj are the comparators).
func BenchmarkFig13(b *testing.B) {
	for _, size := range []int{1, 3, 5} {
		p := benchParams()
		p.SizeUnits = size
		w := buildWorkload(b, p)
		b.Run(fmt.Sprintf("size=%d/Efficient", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.RunEfficient(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("size=%d/Baseline", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.RunBaseline(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("size=%d/GTP", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.RunGTP(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("size=%d/Proj", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.RunProj()
			}
		})
	}
}

// benchEfficient runs the Efficient pipeline under one configuration and
// reports the module breakdown as custom metrics (Figure 14's split).
func benchEfficient(b *testing.B, p benchkit.Params) {
	w := buildWorkload(b, p)
	var pdtNS, evalNS, postNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := w.RunEfficient()
		if err != nil {
			b.Fatal(err)
		}
		pdtNS += s.PDTTime.Nanoseconds()
		evalNS += s.EvalTime.Nanoseconds()
		postNS += s.PostTime.Nanoseconds()
	}
	n := int64(b.N)
	b.ReportMetric(float64(pdtNS/n), "pdt-ns/op")
	b.ReportMetric(float64(evalNS/n), "eval-ns/op")
	b.ReportMetric(float64(postNS/n), "post-ns/op")
}

// BenchmarkFig14 reports Efficient's module breakdown vs data size.
func BenchmarkFig14(b *testing.B) {
	for _, size := range []int{1, 2, 3, 4, 5} {
		p := benchParams()
		p.SizeUnits = size
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig15 varies the number of query keywords (1-5).
func BenchmarkFig15(b *testing.B) {
	for n := 1; n <= 5; n++ {
		p := benchParams()
		p.NumKeywords = n
		b.Run(fmt.Sprintf("keywords=%d", n), func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig16 varies keyword selectivity (low/medium/high).
func BenchmarkFig16(b *testing.B) {
	for _, sel := range []string{"low", "medium", "high"} {
		p := benchParams()
		p.Selectivity = sel
		b.Run("selectivity="+sel, func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig17 varies the number of value joins in the view (0-4).
func BenchmarkFig17(b *testing.B) {
	for joins := 0; joins <= 4; joins++ {
		p := benchParams()
		p.NumJoins = joins
		b.Run(fmt.Sprintf("joins=%d", joins), func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig18 varies join selectivity (1X down to 0.1X).
func BenchmarkFig18(b *testing.B) {
	for _, pt := range []struct {
		label string
		parts int
	}{{"1X", 1}, {"0.5X", 2}, {"0.2X", 5}, {"0.1X", 10}} {
		p := benchParams()
		p.JoinPartitions = pt.parts
		b.Run("selectivity="+pt.label, func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig19 varies the nesting level of the view (1-4).
func BenchmarkFig19(b *testing.B) {
	for level := 1; level <= 4; level++ {
		p := benchParams()
		p.Nesting = level
		b.Run(fmt.Sprintf("nesting=%d", level), func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig20 varies K in top-K (1-40).
func BenchmarkFig20(b *testing.B) {
	for _, k := range []int{1, 10, 20, 30, 40} {
		p := benchParams()
		p.TopK = k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchEfficient(b, p) })
	}
}

// BenchmarkFig21 varies the average view element size (§5.2.3 "other
// results") and reports PDT size alongside.
func BenchmarkFig21(b *testing.B) {
	for x := 1; x <= 5; x++ {
		p := benchParams()
		p.ElemSizeX = x
		b.Run(fmt.Sprintf("elemsize=%dX", x), func(b *testing.B) {
			w := buildWorkload(b, p)
			var pdtNodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := w.RunEfficient()
				if err != nil {
					b.Fatal(err)
				}
				pdtNodes = s.PDTNodes
			}
			b.ReportMetric(float64(pdtNodes), "pdt-nodes")
		})
	}
}

// BenchmarkAblationHashJoin quantifies the evaluator's equality-join fast
// path (a design choice DESIGN.md calls out: it stands in for Quark's
// value indexes and benefits Baseline and Efficient alike).
func BenchmarkAblationHashJoin(b *testing.B) {
	p := benchParams()
	p.SizeUnits = 1
	w := buildWorkload(b, p)
	for _, hash := range []bool{true, false} {
		name := "hashjoin=on"
		if !hash {
			name = "hashjoin=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _, err := w.Engine.Search(w.View, w.Keywords, coreOptions(w, !hash))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func coreOptions(w *benchkit.Workload, disableHashJoin bool) core.Options {
	return core.Options{K: w.Params.TopK, DisableHashJoin: disableHashJoin}
}

// BenchmarkAblationKeywordPruning measures the selection-view keyword
// pruning extension (paper §7 future work, monotone case): rare keywords
// over a selection view skip most PDT work.
func BenchmarkAblationKeywordPruning(b *testing.B) {
	p := benchParams()
	p.Selectivity = "medium" // selective keywords: most articles prunable
	w := buildWorkload(b, p)
	// A true selection view (return the binding element directly) — the
	// only shape where the monotone pruning extension is sound.
	view, err := w.Engine.CompileView(`
for $a in fn:doc(inex.xml)/books//article
where $a/fm/yr > 1992
return $a`)
	if err != nil {
		b.Fatal(err)
	}
	for _, pruning := range []bool{false, true} {
		name := "pruning=off"
		if pruning {
			name = "pruning=on"
		}
		b.Run(name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				_, stats, err := w.Engine.Search(view, w.Keywords,
					core.Options{K: w.Params.TopK, KeywordPruning: pruning, SkipMaterialize: true})
				if err != nil {
					b.Fatal(err)
				}
				nodes = stats.PDTNodes
				if pruning && !stats.KeywordPruned {
					b.Fatal("pruning not applied")
				}
			}
			b.ReportMetric(float64(nodes), "pdt-nodes")
		})
	}
}

// BenchmarkIndexBuild measures index construction cost per data size
// (load-time cost, amortized across queries in the paper's setting).
func BenchmarkIndexBuild(b *testing.B) {
	for _, size := range []int{1, 5} {
		p := benchParams()
		p.SizeUnits = size
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := benchkit.Build(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
