package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/raft"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// TimeoutRanges are the paper's four U(T, 2T) follower/candidate timeout
// settings, in milliseconds (Sec. VI-B1: T = 50, 100, 150, 200).
var TimeoutRanges = []int{50, 100, 150, 200}

// RecoveryRow aggregates one timeout setting's trials.
type RecoveryRow struct {
	TMs     int // timeouts sampled from U(T, 2T)
	Stats   metrics.Stats
	Samples []float64 // recovery times in ms
}

// RecoveryResult holds the rows of one of Figs. 10–12.
type RecoveryResult struct {
	Fig   string
	Note  string
	Rows  []RecoveryRow
	Paper map[int]float64 // the paper's reported averages, for reference
}

// Name implements Result.
func (r *RecoveryResult) Name() string { return r.Fig }

// Print implements Result.
func (r *RecoveryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", r.Fig, r.Note)
	fmt.Fprintf(w, "  %-12s %-10s %-62s %s\n", "timeout", "paper avg", "measured (ms)", "")
	for _, row := range r.Rows {
		paper := "-"
		if v, ok := r.Paper[row.TMs]; ok {
			paper = fmt.Sprintf("%.2f ms", v)
		}
		fmt.Fprintf(w, "  %3d–%3d ms   %-10s %s\n", row.TMs, 2*row.TMs, paper, row.Stats)
	}
	// The paper's Figs. 10–12 are per-trial scatter plots; render the
	// distribution of the first and last timeout settings as histograms.
	for _, i := range []int{0, len(r.Rows) - 1} {
		if i < 0 || i >= len(r.Rows) || len(r.Rows[i].Samples) < 10 {
			continue
		}
		row := r.Rows[i]
		h, err := metrics.NewHistogram(row.Stats.Min, row.Stats.Max+1e-9, 10)
		if err != nil {
			continue
		}
		for _, s := range row.Samples {
			h.Add(s)
		}
		fmt.Fprintf(w, "  distribution, U(%d,%d) ms:\n", row.TMs, 2*row.TMs)
		for _, line := range strings.Split(strings.TrimRight(h.Render(32), "\n"), "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// recoveryScenario measures one crash-recovery time on a fresh N=25,
// n=5 system (the paper's Sec. VI-B setup). kind selects the scenario:
//
//	"elect":  Fig. 10 — subgroup-leader crash → new subgroup leader.
//	"join":   Fig. 11 — subgroup-leader crash → new leader joined FedAvg.
//	"fedavg": Fig. 12 — FedAvg-leader crash → both layers recovered and
//	          the new subgroup leader joined.
func recoveryScenario(kind string, tMs int, seed int64) (float64, error) {
	return recoveryScenarioAt(kind, tMs, 15, seed)
}

// recoveryScenarioAt is recoveryScenario with an explicit one-way link
// latency in milliseconds (the paper fixes 15 ms; ext5 sweeps it).
func recoveryScenarioAt(kind string, tMs, latencyMs int, seed int64) (float64, error) {
	sys, err := cluster.New(cluster.Options{
		NumSubgroups:    5,
		SubgroupSize:    5,
		ElectionTickMin: tMs,
		ElectionTickMax: 2 * tMs,
		Latency:         simnet.Duration(latencyMs) * simnet.Millisecond,
		Seed:            seed,
	})
	if err != nil {
		return 0, err
	}
	if err := sys.Bootstrap(60 * simnet.Second); err != nil {
		return 0, err
	}
	// Let configuration commits propagate before injecting the fault.
	sys.Sim.RunFor(simnet.Duration(4*tMs) * simnet.Millisecond)

	fed := sys.FedAvgLeader()
	var victim uint64
	var victimSub int
	if kind == "fedavg" {
		victim = fed
		victimSub = sys.Peer(victim).Subgroup
	} else {
		for g := 0; ; g++ {
			if l := sys.SubgroupLeader(g); l != fed && l != raft.None {
				victim, victimSub = l, g
				break
			}
		}
	}
	crashAt := sys.Sim.Now()
	if err := sys.CrashPeer(victim); err != nil {
		return 0, err
	}
	limit := 120 * simnet.Second
	newLeader, electAt, err := sys.WaitSubgroupLeader(victimSub, victim, limit)
	if err != nil {
		return 0, err
	}
	switch kind {
	case "elect":
		return simnet.Duration(electAt - crashAt).Ms(), nil
	case "join", "fedavg":
		joinAt, err := sys.WaitJoined(newLeader, limit)
		if err != nil {
			return 0, err
		}
		return simnet.Duration(joinAt - crashAt).Ms(), nil
	default:
		return 0, fmt.Errorf("experiments: unknown scenario %q", kind)
	}
}

func runRecovery(fig, note, kind string, paper map[int]float64, p Params) (*RecoveryResult, error) {
	p = p.Defaults()
	res := &RecoveryResult{Fig: fig, Note: note, Paper: paper}
	for _, tMs := range TimeoutRanges {
		// Trials are independent simulations with per-trial seeds, so
		// they fan out across up to p.Workers goroutines of the shared
		// tensor pool; samples land at their trial index, keeping the
		// result order (and therefore the stats and histograms)
		// identical to a serial run.
		samples := make([]float64, p.Trials)
		errs := make([]error, p.Trials)
		tensor.ParallelRowsN(p.Trials, max(1, p.Workers), func(lo, hi int) {
			for trial := lo; trial < hi; trial++ {
				seed := p.Seed + int64(tMs)*100000 + int64(trial)
				ms, err := recoveryScenario(kind, tMs, seed)
				if err != nil {
					errs[trial] = fmt.Errorf("%s T=%d trial=%d: %w", fig, tMs, trial, err)
					continue
				}
				samples[trial] = ms
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, RecoveryRow{TMs: tMs, Stats: metrics.Summarize(samples), Samples: samples})
	}
	return res, nil
}

// Fig10 measures the time to detect a crashed subgroup leader and elect
// a new one (paper averages: 214.30 / 401.04 / 580.74 / 749.07 ms).
func Fig10(p Params) (*RecoveryResult, error) {
	return runRecovery("fig10",
		"subgroup-leader crash → new subgroup leader elected (N=25, n=5, 15 ms links)",
		"elect",
		map[int]float64{50: 214.30, 100: 401.04, 150: 580.74, 200: 749.07}, p)
}

// Fig11 additionally measures the new leader joining the FedAvg group
// (paper: Fig. 10 averages + 122.98 / 125.8 / 144.70 / 166.09 ms).
func Fig11(p Params) (*RecoveryResult, error) {
	return runRecovery("fig11",
		"subgroup-leader crash → new leader elected and joined FedAvg layer",
		"join",
		map[int]float64{50: 337.28, 100: 526.84, 150: 725.44, 200: 915.16}, p)
}

// Fig12 measures recovery from a FedAvg-leader crash: elections in both
// layers plus the FedAvg-group rebuild.
func Fig12(p Params) (*RecoveryResult, error) {
	return runRecovery("fig12",
		"FedAvg-leader crash → both layers recovered, new subgroup leader joined",
		"fedavg",
		map[int]float64{50: 432.35, 100: 641.49, 150: 855.74, 200: 1073.69}, p)
}
