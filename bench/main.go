// Command bench is the repository's benchmark: four seeded workloads
// driven closed-loop from one process, every sampled answer checked
// against an independent pipeline, end-to-end metrics with tracing off and
// per-layer metrics from a separate traced run. See README.md.
//
//	bash bench/run.sh --workload direct_join --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh                        # all four workloads, a results file
//	bash bench/run.sh --trace 1              # the per-layer run, span files
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -aa -runs 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to: the sandbox has two
// cores, and a run on one would measure the scheduler.
const procs = 2

// host records where and how a results file was measured.
type host struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

// resultsFile is what a suite run writes and -compare reads.
type resultsFile struct {
	Host host      `json:"host"`
	Runs []*result `json:"runs"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
		seed     = fs.Int64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
		seconds  = fs.Float64("seconds", 24, "length of the timed phase of each run")
		trace    = fs.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end run")
		scale    = fs.Float64("scale", 1, "shrink every workload (smoke runs only; numbers are not comparable)")
		runs     = fs.Int("runs", 1, "suite repetitions; run r uses seed+r")
		out      = fs.String("out", filepath.Join(".bench_build", "out"), "directory for results and span files")
		compare  = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
		aa       = fs.Bool("aa", false, "run the suite -runs times (default 3) twice over and compare the two sets")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if n := runtime.NumCPU(); n < procs {
		return fmt.Errorf("refusing to run: nproc is %d and the workloads need %d cores", n, procs)
	}
	runtime.GOMAXPROCS(procs)
	scratch := filepath.Join(*out, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, scratch: scratch, out: *out}
	h := host{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc(), Seconds: *seconds, Scale: *scale,
	}

	if *workload != "" {
		cfg.workload = *workload
		res, err := runOne(cfg, *trace == 1)
		if err != nil {
			return err
		}
		printRun(h, res)
		line, err := json.Marshal(driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	if *aa {
		n := *runs
		if n == 1 {
			n = 3
		}
		var sets [2]*resultsFile
		for i := range sets {
			var err error
			if sets[i], err = suite(cfg, h, n, false); err != nil {
				return err
			}
			if err := writeResults(filepath.Join(*out, fmt.Sprintf("aa-%d.json", i+1)), sets[i]); err != nil {
				return err
			}
		}
		return compareSets(sets[0], sets[1])
	}

	rf, err := suite(cfg, h, *runs, *trace == 1)
	if err != nil {
		return err
	}
	name := "results.json"
	if *trace == 1 {
		name = "results-trace.json"
	}
	path := filepath.Join(*out, name)
	if err := writeResults(path, rf); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	for _, r := range rf.Runs {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "default"
}

func runOne(cfg config, traced bool) (*result, error) {
	if traced {
		return runTraced(cfg)
	}
	return runEndToEnd(cfg)
}

// suite runs every workload n times; repetition r uses seed+r.
func suite(cfg config, h host, n int, traced bool) (*resultsFile, error) {
	rf := &resultsFile{Host: h}
	for r := 0; r < n; r++ {
		for _, name := range workloadNames {
			c := cfg
			c.workload, c.seed = name, cfg.seed+int64(r)
			res, err := runOne(c, traced)
			if err != nil {
				return nil, err
			}
			printRun(h, res)
			rf.Runs = append(rf.Runs, res)
		}
	}
	return rf, nil
}

func writeResults(path string, rf *resultsFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printRun prints one run: the host line, the counts, then every metric by
// name with its unit.
func printRun(h host, r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "traced"
	}
	fmt.Printf("== %s (%s)  seed=%d  go=%s nproc=%d GOMAXPROCS=%d GOGC=%s seconds=%g scale=%g  %s\n",
		r.Workload, kind, r.Seed, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.GOGC, h.Seconds, h.Scale,
		time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("   input_sha256=%s input_bytes=%d\n", r.InputSHA256, r.InputBytes)
	if !r.Trace {
		fmt.Printf("   host_factor=%.4f (timing metrics are host-normalised; times this, about the raw wall-clock values)\n", r.HostFactor)
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var counts []string
	for _, k := range keys {
		counts = append(counts, fmt.Sprintf("%s=%d", k, r.Counts[k]))
	}
	fmt.Println("  ", strings.Join(counts, " "))
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("   %-42s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("   %-42s %14.6f ratio  (%d failed of %d attempted)\n", "failed_frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
}
