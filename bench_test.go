// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark measures one pipeline/configuration; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or cmd/vxmlbench for the same figures as text
// tables. The sweep points come from internal/benchkit.Figures.
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

// benchFigure runs one sub-benchmark per point of the paper's figure n,
// as benchkit defines it (the points vxmlbench prints). Figure 13 times
// the four approaches at each point; the others time Efficient and report
// its module breakdown as custom metrics (Figure 14's split) and the PDT
// size (Figure 21's).
func benchFigure(b *testing.B, n int) {
	f := benchkit.Figures()[n-13]
	for _, pt := range f.Points {
		p := benchParams()
		pt.Set(&p)
		if !f.Comparators {
			b.Run(pt.Label, func(b *testing.B) { benchEfficient(b, p) })
			continue
		}
		w := buildWorkload(b, p)
		for _, ap := range []struct {
			name string
			run  func() error
		}{
			{"Efficient", func() error { _, err := w.RunEfficient(); return err }},
			{"Baseline", func() error { _, err := w.RunBaseline(); return err }},
			{"GTP", func() error { _, err := w.RunGTP(); return err }},
			{"Proj", func() error { w.RunProj(); return nil }},
		} {
			b.Run(pt.Label+"/"+ap.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := ap.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchEfficient runs the Efficient pipeline under one configuration and
// reports the module breakdown and PDT size as custom metrics.
func benchEfficient(b *testing.B, p benchkit.Params) {
	w := buildWorkload(b, p)
	var pdtNS, evalNS, postNS int64
	var pdtNodes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := w.RunEfficient()
		if err != nil {
			b.Fatal(err)
		}
		pdtNS += s.PDTTime.Nanoseconds()
		evalNS += s.EvalTime.Nanoseconds()
		postNS += s.PostTime.Nanoseconds()
		pdtNodes = s.PDTNodes
	}
	n := int64(b.N)
	b.ReportMetric(float64(pdtNS/n), "pdt-ns/op")
	b.ReportMetric(float64(evalNS/n), "eval-ns/op")
	b.ReportMetric(float64(postNS/n), "post-ns/op")
	b.ReportMetric(float64(pdtNodes), "pdt-nodes")
}

// BenchmarkFig13 compares the four approaches while varying data size.
func BenchmarkFig13(b *testing.B) { benchFigure(b, 13) }

// BenchmarkFig14 reports Efficient's module breakdown vs data size.
func BenchmarkFig14(b *testing.B) { benchFigure(b, 14) }

// BenchmarkFig15 varies the number of query keywords (1-5).
func BenchmarkFig15(b *testing.B) { benchFigure(b, 15) }

// BenchmarkFig16 varies keyword selectivity (low/medium/high).
func BenchmarkFig16(b *testing.B) { benchFigure(b, 16) }

// BenchmarkFig17 varies the number of value joins in the view (0-4).
func BenchmarkFig17(b *testing.B) { benchFigure(b, 17) }

// BenchmarkFig18 varies join selectivity (1X down to 0.1X).
func BenchmarkFig18(b *testing.B) { benchFigure(b, 18) }

// BenchmarkFig19 varies the nesting level of the view (1-4).
func BenchmarkFig19(b *testing.B) { benchFigure(b, 19) }

// BenchmarkFig20 varies K in top-K (1-40).
func BenchmarkFig20(b *testing.B) { benchFigure(b, 20) }

// BenchmarkFig21 varies the average view element size (§5.2.3 "other
// results"); the pdt-nodes metric is the PDT size it plots.
func BenchmarkFig21(b *testing.B) { benchFigure(b, 21) }

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
