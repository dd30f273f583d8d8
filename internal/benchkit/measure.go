package benchkit

import (
	"runtime"
	"time"
)

// Measurement is the result of one timed measurement loop: the paper-style
// ns/op plus the allocation counters that make optimization work provable.
type Measurement struct {
	// Iters is the number of times the function ran inside the budget.
	Iters int
	// NsPerOp is the mean wall-clock nanoseconds per run.
	NsPerOp float64
	// AllocsPerOp is the mean heap allocations per run, from the runtime's
	// cumulative Mallocs counter.
	AllocsPerOp float64
	// BytesPerOp is the mean heap bytes allocated per run (TotalAlloc).
	BytesPerOp float64
}

// Measure runs fn repeatedly for at least budget (and at least once),
// returning timing and allocation means. One untimed warm-up run populates
// caches (worker pools, interners, lazily built layouts) so steady-state
// cost is what gets reported — the same convention as testing.B.
func Measure(budget time.Duration, fn func()) Measurement {
	fn() // warm-up, untimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		fn()
		iters++
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return Measurement{
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}
