package core

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sac"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The paper-CNN round shape of the fl_train workload (Sec. VI-A): the
// 1,250,858-parameter CNN over N = 10 peers in two subgroups of 5 with
// k = 4, an AfterShares crash of a non-leader every second round.
const paperCNNDim = 1_250_858

var (
	paperCNNSizes = []int{5, 5}
	paperCNNK     = []int{4}
)

// paperCNNRound fills models with round r's seeded inputs and returns
// the round's spec: non-uniform sample counts, and on even rounds an
// AfterShares crash of one non-leader (alternating subgroups).
func paperCNNRound(models [][]float64, r int) RoundSpec {
	rng := rand.New(rand.NewSource(int64(1000 + r)))
	counts := make([]float64, len(models))
	for i, m := range models {
		for j := range m {
			m[j] = rng.NormFloat64() * 0.05
		}
		counts[i] = float64(4 + i%3)
	}
	spec := RoundSpec{SampleCounts: counts, FedLeader: -1}
	if r%2 == 0 {
		spec.Crash = map[int]sac.CrashPlan{(r / 2) % 2: {1 + r%4: sac.AfterShares}}
	}
	return spec
}

func newPaperCNNSystem(tb testing.TB, reg *telemetry.Registry) *System {
	tb.Helper()
	sys, err := NewSystem(Config{Sizes: paperCNNSizes, K: paperCNNK, Telemetry: reg}, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

func newModels(n, dim int) [][]float64 {
	models := make([][]float64, n)
	for i := range models {
		models[i] = make([]float64, dim)
	}
	return models
}

// TestAggregateRoundPaperCNNPinned pins the exact bits of the global
// model over three seeded rounds at the fl_train shape (one of them
// with a k-of-n recovery), so a data-plane change that reorders or
// fuses any floating-point operation of Divide, the subtotals, the SAC
// average or FedAvg fails here. The value is the one the engine
// produced before its data plane moved onto the tensor pool, when every
// pass ran serially.
func TestAggregateRoundPaperCNNPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-CNN-sized heap; TestAggregateBudgetInvariant covers the kernels under -race")
	}
	sys := newPaperCNNSystem(t, nil)
	models := newModels(sys.cfg.NumPeers(), paperCNNDim)
	h := fnv.New64a()
	var buf [8]byte
	for r := 1; r <= 3; r++ {
		res, err := sys.AggregateRound(models, paperCNNRound(models, r))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Global {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
	const want = 0x115be5a17823ec33
	if got := h.Sum64(); got != want {
		t.Fatalf("global models of 3 rounds hash to %#x, want %#x", got, want)
	}
}

// sameBits reports whether a and b hold the same bits in every element
// (so it tells −0 from +0 and compares NaNs).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// specialModels returns n seeded models of length dim above the fan-out
// floor, with non-finite and signed-zero columns: an all −0 column (its
// +0 average pins the zeroed accumulator), +Inf, −Inf and NaN in one
// model each, and +Inf against −Inf.
func specialModels(n int) [][]float64 {
	dim := 2*tensor.ParallelVecFloor + 77
	models := randModels(rand.New(rand.NewSource(21)), n, dim)
	negZero := math.Copysign(0, -1)
	for _, m := range models {
		m[0], m[dim-1] = negZero, negZero
	}
	models[0][1], models[1][2], models[2][3] = math.Inf(1), math.Inf(-1), math.NaN()
	models[0][4], models[n-1][4] = math.Inf(1), math.Inf(-1)
	return models
}

// budgetRun is one equal-seed run of a budget-invariance case: the
// round results and the telemetry snapshot under a frozen clock.
type budgetRun struct {
	results   []*RoundResult
	snap      []byte
	recovered int64 // subtotals fetched from replica holders
}

func runAtBudget(t *testing.T, budget int, cfg Config, round func(*System) (*RoundResult, error)) budgetRun {
	t.Helper()
	var out budgetRun
	withParallelism(budget, func() {
		reg := telemetry.New()
		reg.SetClock(func() int64 { return 0 })
		cfg.Telemetry = reg
		sys, err := NewSystem(cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ { // the second round reuses the scratch
			res, err := round(sys)
			if err != nil {
				t.Fatal(err)
			}
			out.results = append(out.results, res)
		}
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out.snap = buf.Bytes()
		out.recovered = reg.Snapshot().Counters["sac/subtotals_recovered"]
	})
	return out
}

func sameRound(a, b *RoundResult) bool {
	if !sameBits(a.Global, b.Global) || a.Bytes != b.Bytes || len(a.SubgroupAvgs) != len(b.SubgroupAvgs) ||
		!reflect.DeepEqual(a.Participated, b.Participated) || !reflect.DeepEqual(a.ExcludedPeers, b.ExcludedPeers) ||
		!reflect.DeepEqual(a.ByzantineExcluded, b.ByzantineExcluded) {
		return false
	}
	for g := range a.SubgroupAvgs {
		if !sameBits(a.SubgroupAvgs[g], b.SubgroupAvgs[g]) {
			return false
		}
	}
	return true
}

// TestAggregateBudgetInvariant runs every aggregation path of the two-
// layer system at pool budgets 1, 2 and 3 and requires bit-equal round
// results (global and subgroup models, participation, bytes) and
// byte-equal telemetry snapshots, which also carry the recovery and
// crash counters.
func TestAggregateBudgetInvariant(t *testing.T) {
	aggregate := func(models [][]float64, spec RoundSpec) func(*System) (*RoundResult, error) {
		return func(s *System) (*RoundResult, error) { return s.AggregateRound(models, spec) }
	}
	ten, eight, nine := specialModels(10), specialModels(8), specialModels(9)
	counts := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	cases := []struct {
		name     string
		cfg      Config
		round    func(*System) (*RoundResult, error)
		recovers bool
	}{
		{"k-of-n recovery", Config{Sizes: []int{5, 5}, K: []int{4}},
			aggregate(ten, RoundSpec{SampleCounts: counts, FedLeader: -1,
				Crash: map[int]sac.CrashPlan{1: {3: sac.AfterShares}}}), true},
		{"n-of-n leader", Config{Sizes: []int{4, 4}},
			aggregate(eight, RoundSpec{FedLeader: -1, Leaders: []int{1, 2}}), false},
		{"baseline broadcast", Config{Sizes: []int{6}},
			func(s *System) (*RoundResult, error) { return s.BaselineAggregate(eight[:6]) }, false},
		{"guard cross-check", Config{Sizes: []int{5, 5}, K: []int{3}, Guard: &sac.Guard{CrossCheck: true}},
			aggregate(ten, RoundSpec{SampleCounts: counts, FedLeader: -1,
				Crash: map[int]sac.CrashPlan{0: {2: sac.AfterShares}}}), true},
		{"secure upper", Config{Sizes: []int{3, 3, 3}, SecureUpper: true},
			aggregate(nine, RoundSpec{SampleCounts: counts[:9], FedLeader: -1}), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runAtBudget(t, 1, tc.cfg, tc.round)
			if (ref.recovered > 0) != tc.recovers {
				t.Fatalf("%d subtotals recovered; want recovery = %v", ref.recovered, tc.recovers)
			}
			for _, budget := range []int{2, 3} {
				got := runAtBudget(t, budget, tc.cfg, tc.round)
				for r := range ref.results {
					if !sameRound(ref.results[r], got.results[r]) {
						t.Fatalf("budget %d: round %d differs from budget 1", budget, r)
					}
				}
				if !bytes.Equal(ref.snap, got.snap) {
					t.Fatalf("budget %d: telemetry snapshot differs from budget 1", budget)
				}
			}
		})
	}
}

// TestSubtotalStartsFromPositiveZero pins the −0 semantics of the fused
// subtotal and average passes: a column that is −0 in every model
// averages to +0, as the zero-initialized accumulators always gave.
func TestSubtotalStartsFromPositiveZero(t *testing.T) {
	models := specialModels(10)
	sys, err := NewSystem(Config{Sizes: []int{5, 5}, K: []int{4}}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Aggregate(models, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := len(models[0]) - 1
	for g, avg := range res.SubgroupAvgs {
		if math.Float64bits(avg[0]) != 0 || math.Float64bits(avg[last]) != 0 {
			t.Fatalf("subgroup %d: all −0 columns average to %v, %v; want +0", g, avg[0], avg[last])
		}
	}
	if !math.IsNaN(res.Global[3]) || !math.IsNaN(res.Global[4]) || !math.IsInf(res.Global[1], 1) {
		t.Fatalf("non-finite columns: got %v", res.Global[:5])
	}
}

// BenchmarkAggregateRoundPaperCNN times one two-layer round at the
// fl_train shape (AfterShares crash on odd iterations) and reports the
// SAC phases per op from the sac/phase_*_us histograms.
func BenchmarkAggregateRoundPaperCNN(b *testing.B) {
	reg := telemetry.New()
	sys := newPaperCNNSystem(b, reg)
	models := newModels(sys.cfg.NumPeers(), paperCNNDim)
	paperCNNRound(models, 1)
	crash := map[int]sac.CrashPlan{1: {3: sac.AfterShares}}
	spec := RoundSpec{FedLeader: -1}
	// Warm the scratch so the steady state is what gets measured.
	if _, err := sys.AggregateRound(models, spec); err != nil {
		b.Fatal(err)
	}
	before := reg.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Crash = nil
		if i%2 == 1 {
			spec.Crash = crash
		}
		if _, err := sys.AggregateRound(models, spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := reg.Snapshot()
	for _, phase := range []string{"share", "subtotal", "finish"} {
		name := "sac/phase_" + phase + "_us"
		us := after.Histograms[name].Sum - before.Histograms[name].Sum
		b.ReportMetric(us/1e3/float64(b.N), phase+"_ms")
	}
}
