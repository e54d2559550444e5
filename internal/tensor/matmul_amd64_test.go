package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// requireAVX skips the test without the assembly kernel and otherwise
// restores it afterwards: the test clears useAVX to force the pure-Go
// kernel on the same inputs.
func requireAVX(t *testing.T) {
	t.Helper()
	if !useAVX {
		t.Skip("CPU or OS lacks AVX")
	}
	t.Cleanup(func() { useAVX = true })
}

// specialMat is randMat with about one entry in eight replaced by ±0,
// ±Inf or NaN. The NaN is the x86 default NaN, the one 0·Inf and
// Inf−Inf produce, so every NaN in flight has the same bits and a
// result does not depend on which NaN operand the hardware propagates.
func specialMat(rng *rand.Rand, m, n int) *Tensor {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0xFFF8000000000000)}
	t := randMat(rng, m, n)
	for i := range t.data {
		if rng.Intn(8) == 0 {
			t.data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// signedZeroMat holds only +0 and -0, so every product is a signed zero
// and the sign of each sum depends on the exact sequence of adds.
func signedZeroMat(rng *rand.Rand, m, n int) *Tensor {
	t := New(m, n)
	for i := range t.data {
		t.data[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
	}
	return t
}

// TestAVXKernelMatchesPureGo compares the assembly and pure-Go kernels
// bit for bit across fringe shapes, special values, accumulation onto a
// non-zero C and row panels split at arbitrary rows.
func TestAVXKernelMatchesPureGo(t *testing.T) {
	requireAVX(t)
	shapes := []struct{ m, k, n int }{
		{5, 7, 13},    // m%4 ≠ 0, n%8 ≠ 0, k < 8
		{10, 9, 4},    // n < 8: every tile is a padded narrow strip
		{1, 300, 10},  // m = 1 (Dense at batch 1), k past one kBlock
		{4, 1, 8},     // one exact tile, k = 1
		{9, 513, 17},  // k = 2·kBlock+1
		{38, 256, 40}, // k = kBlock exactly
		{64, 770, 27}, // conv1 lowering width
	}
	inputs := []struct {
		name string
		gen  func(*rand.Rand, int, int) *Tensor
	}{
		{"normal", randMat},
		{"specials", specialMat},
		{"signed-zeros", signedZeroMat},
	}
	rng := rand.New(rand.NewSource(17))
	for _, s := range shapes {
		for _, in := range inputs {
			a, at := in.gen(rng, s.m, s.k), in.gen(rng, s.k, s.m)
			b, bt := in.gen(rng, s.k, s.n), in.gen(rng, s.n, s.k)
			flavours := []struct {
				name      string
				a, b      strided
				overwrite bool
			}{
				{"A·B", view(a, false), view(b, false), true},
				{"Aᵀ·B acc", view(at, true), view(b, false), false},
				{"A·Bᵀ", view(a, false), view(bt, true), true},
			}
			for _, f := range flavours {
				c0 := in.gen(rng, s.m, s.n).data // stale for overwrite, accumulated onto otherwise
				want := append([]float64(nil), c0...)
				useAVX = false
				gemmPanel(want, s.n, f.a, f.b, 0, s.m, s.k, f.overwrite)
				useAVX = true
				for _, split := range []int{0, 1, 3, s.m / 2, s.m - 1} {
					if split > s.m {
						continue
					}
					got := append([]float64(nil), c0...)
					gemmPanel(got, s.n, f.a, f.b, 0, split, s.k, f.overwrite)
					gemmPanel(got, s.n, f.a, f.b, split, s.m, s.k, f.overwrite)
					for i, v := range got {
						if math.Float64bits(v) != math.Float64bits(want[i]) {
							t.Fatalf("%s %v %s split %d: C[%d] = %v (%#x) with AVX, %v (%#x) pure Go",
								f.name, s, in.name, split, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}
