// Command p2pfl-experiments regenerates every table and figure of the
// paper's evaluation, plus the extension experiments of this
// reproduction:
//
//	p2pfl-experiments -exp all
//	p2pfl-experiments -exp fig10 -trials 1000
//	p2pfl-experiments -exp fig6 -rounds 1000 -csv out/
//	p2pfl-experiments -exp ext2          # DP utility sweep
//
// Accuracy figures (6–9) run the CI-scale synthetic workload by default;
// raise -rounds for longer curves. Recovery figures (10–12) run on the
// virtual-time simulator, so -trials 1000 (the paper's count) finishes in
// minutes, not hours.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiments ("+strings.Join(experiments.Names(), ",")+") or 'all'")
		rounds   = flag.Int("rounds", 120, "federated training rounds for figs 6-9 (paper: 1000)")
		trials   = flag.Int("trials", 100, "trials per timeout setting for figs 10-12 (paper: 1000)")
		maxN     = flag.Int("maxn", 50, "largest N for fig 14")
		workers  = flag.Int("workers", 0, "concurrent clients/trials per driver (0 = GOMAXPROCS), capped by the shared worker pool's budget (GOMAXPROCS); results are identical at any value")
		seed     = flag.Int64("seed", 1, "random seed")
		csvDir   = flag.String("csv", "", "also write full data series as <dir>/<fig>.csv")
		markdown = flag.String("markdown", "", "write a self-contained markdown report to this file instead of stdout tables")
	)
	flag.Parse()

	p := experiments.Params{Rounds: *rounds, Trials: *trials, MaxN: *maxN, Workers: *workers, Seed: *seed}
	if *markdown != "" {
		f, err := os.Create(*markdown)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := experiments.WriteReport(f, strings.Split(*exp, ","), p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *markdown)
		return
	}
	want := strings.Split(*exp, ",")
	matches := func(name string) bool {
		for _, w := range want {
			if w == "all" || w == name {
				return true
			}
		}
		return false
	}

	ran := 0
	for _, name := range experiments.Names() {
		if !matches(name) {
			continue
		}
		res, err := experiments.Run(name, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		fmt.Println()
		if *csvDir != "" {
			if cw, ok := res.(experiments.CSVWriter); ok {
				if err := cw.WriteCSV(*csvDir); err != nil {
					fmt.Fprintf(os.Stderr, "%s: csv: %v\n", name, err)
					os.Exit(1)
				}
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *exp, strings.Join(experiments.Names(), ","))
		os.Exit(2)
	}
}
