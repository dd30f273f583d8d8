// Command vxmlbench is the repository's reproducible performance harness:
// it drives the internal/benchkit workloads — the paper's figures 13-21
// plus post-paper scenarios (parallelism sweep, concurrent throughput,
// mutation mix, cache hit/miss, streaming early break, allocation hot
// paths) — over synthetic corpora at a chosen scale, prints each
// scenario's rows as an aligned text table, and writes a schema-versioned
// machine-readable report.
//
// Usage:
//
//	vxmlbench                              # all scenarios, small profile -> BENCH_5.json
//	vxmlbench -profile tiny -out /tmp/b.json
//	vxmlbench -scenarios fig13_approaches,cache_hit_miss
//	vxmlbench -list                        # print the scenario catalog and Table 1
//	vxmlbench -validate BENCH_5.json       # schema-check an existing report
//
// The emitted JSON (see internal/benchkit.Report) carries per-scenario
// ns/op, allocs/op, bytes/op, base-data bytes fetched, index probes,
// speedup ratios and host metadata; the file is validated against its
// schema before it is written, and CI regenerates and re-validates a tiny
// profile on every push. docs/BENCHMARKS.md documents the methodology and
// the scenario-to-figure mapping.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vxml/internal/benchkit"
)

func main() {
	profile := flag.String("profile", "small", "scale preset: tiny, small, medium or large")
	out := flag.String("out", "BENCH_5.json", "output path for the JSON report")
	scenarios := flag.String("scenarios", "all", "comma-separated scenario names, or 'all'")
	seed := flag.Int64("seed", 42, "data generation seed")
	budget := flag.Duration("budget", 0, "override the per-point measurement budget (0 = profile default)")
	list := flag.Bool("list", false, "print the scenario catalog and Table 1, then exit")
	validate := flag.String("validate", "", "validate an existing report file and exit")
	flag.Parse()

	if *list {
		fmt.Printf("%-24s %-6s %s\n", "NAME", "FIGURE", "DESCRIPTION")
		for _, def := range benchkit.ScenarioCatalog() {
			fig := def.Figure
			if fig == "" {
				fig = "-"
			}
			fmt.Printf("%-24s %-6s %s\n", def.Name, fig, def.Description)
		}
		fmt.Printf("\n%s", benchkit.ParamsTable().Render())
		return
	}
	if *validate != "" {
		if err := benchkit.ValidateFile(*validate); err != nil {
			fmt.Fprintf(os.Stderr, "vxmlbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s report\n", *validate, benchkit.SchemaVersion)
		return
	}

	prof, err := benchkit.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vxmlbench: %v\n", err)
		os.Exit(2)
	}
	if *budget > 0 {
		prof.Budget = *budget
	}
	var names []string
	if s := strings.TrimSpace(*scenarios); s != "" && s != "all" {
		for _, n := range strings.Split(s, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}

	cfg := benchkit.Config{Profile: prof, Seed: *seed}
	start := time.Now()
	fmt.Printf("vxmlbench: profile=%s seed=%d budget=%s\n", prof.Name, *seed, prof.Budget)
	report, err := benchkit.RunReport(cfg, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vxmlbench: %v\n", err)
		os.Exit(1)
	}
	if err := report.WriteFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "vxmlbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("vxmlbench: %d scenarios -> %s (%.1fs)\n",
		len(report.Scenarios), *out, time.Since(start).Seconds())
	for i := range report.Scenarios {
		fmt.Printf("\n%s", report.Scenarios[i].Table().Render())
	}
}
