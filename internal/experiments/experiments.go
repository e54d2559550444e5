// Package experiments contains one driver per table and figure of the
// paper's evaluation (Sec. VI) and analysis (Sec. VII). Each driver
// returns a printable result and is shared by the CLI
// (cmd/p2pfl-experiments) and the benchmark harness (bench_test.go).
//
// Scale knobs: the paper trains the 1.25M-parameter CNN for 1000 rounds
// and runs 1000 recovery trials. Params lets CI-scale runs use the same
// code paths at reduced rounds/trials; the communication-cost figures
// (13, 14) are exact at any scale because they combine closed forms with
// byte-accounted aggregation runs.
package experiments

import (
	"fmt"
	"io"
	"runtime"
)

// Params scales the experiment drivers.
type Params struct {
	// Rounds of federated training for Figs. 6–9 (paper: 1000).
	Rounds int
	// PeersScale optionally overrides nothing for Figs. 6–9 (the peer
	// counts are fixed by the paper) but bounds the Fig. 14 sweep.
	MaxN int
	// Trials per timeout setting for Figs. 10–12 (paper: 1000).
	Trials int
	// Workers bounds concurrency inside the drivers: recovery trials
	// (Figs. 10–12) run up to Workers simulations at a time, and the
	// training figures pass it through to core.TrainerConfig.Workers.
	// It is a ceiling on the shared tensor pool, never more goroutines
	// than tensor.SetParallelism's budget (default GOMAXPROCS). Every
	// driver is deterministic at any worker count — trials and clients
	// are independently seeded and reduced in index order. 0 defaults
	// to GOMAXPROCS.
	Workers int
	// Seed makes every driver deterministic.
	Seed int64
}

// Defaults fills zero fields with CI-scale values.
func (p Params) Defaults() Params {
	if p.Rounds <= 0 {
		p.Rounds = 120
	}
	if p.Trials <= 0 {
		p.Trials = 100
	}
	if p.MaxN <= 0 {
		p.MaxN = 50
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Result is a printable experiment outcome.
type Result interface {
	// Name returns the table/figure identifier (e.g. "fig10").
	Name() string
	// Print renders the paper-style rows.
	Print(w io.Writer)
}

// Table1 reports the evaluation environment, standing in for the paper's
// Table I (machine specification).
type Table1Result struct {
	GoVersion string
	OS, Arch  string
	CPUs      int
}

// Table1 collects the runtime environment.
func Table1() *Table1Result {
	return &Table1Result{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// Name implements Result.
func (r *Table1Result) Name() string { return "tab1" }

// Print implements Result.
func (r *Table1Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table I — evaluation environment (this reproduction)")
	fmt.Fprintf(w, "  Go        %s\n", r.GoVersion)
	fmt.Fprintf(w, "  OS/Arch   %s/%s\n", r.OS, r.Arch)
	fmt.Fprintf(w, "  CPUs      %d\n", r.CPUs)
	fmt.Fprintln(w, "  Network   discrete-event simulation, 15 ms one-way latency")
	fmt.Fprintln(w, "  Datasets  synthetic MNIST/CIFAR-10 substitutes (see DESIGN.md §3)")
}
