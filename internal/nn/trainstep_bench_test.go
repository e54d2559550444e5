package nn_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// paperCNNStepper builds the paper's CNN with seeded weights and a
// seeded batch of 8 CIFAR-shaped inputs, and returns the model and one
// full training step (zero-grad, forward, loss, backward, Adam update).
func paperCNNStepper(tb testing.TB) (*nn.Model, func()) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	model, err := nn.PaperCNN(3, 32, 10, rng)
	if err != nil {
		tb.Fatal(err)
	}
	opt := optim.NewAdam(1e-4)
	const batch = 8
	x := tensor.New(batch, 3, 32, 32)
	for i, d := 0, x.Data(); i < len(d); i++ {
		d[i] = rng.Float64()
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return model, func() {
		model.ZeroGrad()
		if _, err := model.Loss(x, labels); err != nil {
			tb.Fatal(err)
		}
		if err := model.Backward(); err != nil {
			tb.Fatal(err)
		}
		if err := opt.Step(model.Params()); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPaperCNNTrainStep measures one full training step of the
// paper's CNN at batch 8 — the hot path of every federated round.
// Allocations should stay flat in steady state thanks to the
// layer-owned scratch workspaces.
func BenchmarkPaperCNNTrainStep(b *testing.B) {
	_, step := paperCNNStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestPaperCNNTrainStepPinned pins the exact bits of the weight vector
// after three seeded steps of the benchmark's training step, so a
// kernel change that reorders or fuses any floating-point operation on
// the conv/dense hot path fails here.
func TestPaperCNNTrainStepPinned(t *testing.T) {
	model, step := paperCNNStepper(t)
	for i := 0; i < 3; i++ {
		step()
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range model.WeightVector() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
		h.Write(buf[:])
	}
	const want = 0x535a58c92c9b13a3
	if got := h.Sum64(); got != want {
		t.Fatalf("weights after 3 steps hash to %#x, want %#x", got, want)
	}
}
