package experiments

import (
	"testing"

	"repro/internal/tensor"
)

// TestRecoveryWorkersDeterministic checks the parallel trial loop of the
// recovery figures: Workers > 1 must reproduce the serial samples
// exactly, because every trial owns a fresh, independently seeded
// simulation and lands at its own index. Workers only caps the shared
// tensor pool, so the pool budget is raised to 3 to make the parallel
// run really use three goroutines, however many CPUs the host has.
func TestRecoveryWorkersDeterministic(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(3)
	serial, err := Fig10(Params{Rounds: 5, Trials: 4, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig10(Params{Rounds: 5, Trials: 4, Seed: 11, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i, row := range serial.Rows {
		prow := par.Rows[i]
		if len(row.Samples) != len(prow.Samples) {
			t.Fatalf("T=%d: sample counts differ", row.TMs)
		}
		for j := range row.Samples {
			if row.Samples[j] != prow.Samples[j] {
				t.Fatalf("T=%d trial %d: %v (serial) vs %v (workers=3)",
					row.TMs, j, row.Samples[j], prow.Samples[j])
			}
		}
	}
}
