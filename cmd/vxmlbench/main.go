// Command vxmlbench reproduces the paper's evaluation (§5): it runs the
// internal/benchkit sweeps of Figures 13-21 over synthetic INEX-like
// corpora at a chosen scale and prints each figure as an aligned text
// table. It writes no file; the repository's machine-readable benchmark,
// covering everything after the paper, is bench/ (see bench/README.md).
//
// Usage:
//
//	vxmlbench                                  # every figure, small profile
//	vxmlbench -profile tiny
//	vxmlbench -figures fig13_approaches,fig17_joins
//	vxmlbench -list                            # print Table 1 and the figures
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
	figures := flag.String("figures", "all", "comma-separated figure names, or 'all'")
	seed := flag.Int64("seed", 42, "data generation seed")
	budget := flag.Duration("budget", 0, "override the per-point measurement budget (0 = profile default)")
	list := flag.Bool("list", false, "print Table 1 and the figures, then exit")
	flag.Parse()

	if *list {
		fmt.Printf("%s\n", benchkit.ParamsTable().Render())
		fmt.Printf("%-24s %s\n", "FIGURE", "DESCRIPTION")
		for _, f := range benchkit.Figures() {
			fmt.Printf("%-24s %s\n", f.Name, f.Description)
		}
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
	selected := map[string]bool{}
	if s := strings.TrimSpace(*figures); s != "" && s != "all" {
		for _, n := range strings.Split(s, ",") {
			selected[strings.TrimSpace(n)] = true
		}
	}
	all := len(selected) == 0
	var run []benchkit.Figure
	for _, f := range benchkit.Figures() {
		if all || selected[f.Name] {
			run = append(run, f)
			delete(selected, f.Name)
		}
	}
	for n := range selected {
		fmt.Fprintf(os.Stderr, "vxmlbench: unknown figure %q (use -list)\n", n)
		os.Exit(2)
	}

	start := time.Now()
	fmt.Printf("vxmlbench: profile=%s seed=%d budget=%s\n", prof.Name, *seed, prof.Budget)
	for _, f := range run {
		t, err := f.Run(prof, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vxmlbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n%s", t.Render())
	}
	fmt.Printf("\nvxmlbench: %d figures (%.1fs)\n", len(run), time.Since(start).Seconds())
}
