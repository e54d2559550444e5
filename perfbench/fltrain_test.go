package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// TestFLRoundLoopMatchesRunTraining proves that the fl_train round loop
// computes what the library's own training driver computes: the same
// configuration, seed derivations and crash draws give a bit-identical
// final global model, at one training worker and at the benchmark's two.
func TestFLRoundLoopMatchesRunTraining(t *testing.T) {
	const seed, rounds = 7, 3
	cfg := flConfig(seed, rounds)
	cfg.Workers = 1
	want, err := core.RunTraining(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		s, err := newFLState(flConfig(seed, rounds))
		if err != nil {
			t.Fatal(err)
		}
		// Round 2 draws an AfterShares crash (CrashEvery = 2).
		for r := 1; r <= rounds; r++ {
			if _, err := s.round(r, workers, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.global) != len(want.FinalGlobal) {
			t.Fatalf("workers=%d: %d weights, RunTraining has %d", workers, len(s.global), len(want.FinalGlobal))
		}
		for i := range s.global {
			if math.Float64bits(s.global[i]) != math.Float64bits(want.FinalGlobal[i]) {
				t.Fatalf("workers=%d: weight %d is %v, RunTraining gives %v", workers, i, s.global[i], want.FinalGlobal[i])
			}
		}
	}
}

// TestFLRoundTracedConcurrent runs traced rounds on two training slots
// with a small network, so `go test -race` can check the round loop and
// the span recorder under concurrency within the memory of a small host.
func TestFLRoundTracedConcurrent(t *testing.T) {
	cfg := flConfig(3, 2)
	cfg.Data = dataset.Tiny(flClasses, flSubgroups*flSubgroupSize*flSamplesPerPeer, 20, 3)
	cfg.Model = func(rng *rand.Rand) (*nn.Model, error) {
		return nn.NewModel(nn.NewConv2D(1, 2, 3, nn.PadSame, rng), nn.NewReLU(), nn.NewFlatten(), nn.NewDense(2*8*8, flClasses, rng)), nil
	}
	cfg.Core.Telemetry = telemetry.New()
	s, err := newFLState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for r := 1; r <= 2; r++ {
		root := tr.begin("round", 0, r)
		if _, err := s.round(r, 2, tr, root); err != nil {
			t.Fatal(err)
		}
		tr.end(root)
	}
	if got := len(tr.perOp("fl.train")); got != 2 {
		t.Fatalf("fl.train spans cover %d rounds, want 2", got)
	}
	for _, sp := range tr.spans {
		if sp.End < sp.Start {
			t.Fatalf("span %+v is not closed", sp)
		}
	}
	if o := tr.overheadS([]int{1, 2}); !(o > 0) {
		t.Fatalf("tracing overhead %v s, want > 0", o)
	}
}
