package secretshare

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestParallelDivideBitIdentical pins the batched-kernel contract: at
// every pool budget the dividers produce exactly the bytes of the
// budget-1 (inline) run — same shares bit for bit, same rng state left
// behind — so the budget can never change a training run.
func TestParallelDivideBitIdentical(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	// Odd dim above the fan-out floor: panels cannot split evenly.
	const n, seed = 9, 17
	dim := 2*tensor.ParallelVecFloor + 4099

	w := make([]float64, dim)
	rng := rand.New(rand.NewSource(99))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	w[0], w[1], w[2], w[dim-1] = math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Inf(-1)

	cases := []struct {
		name string
		d    Divider
	}{
		{"scalar", ScalarDivider{}},
		{"mask", MaskDivider{Scale: 2}},
	}
	for _, tc := range cases {
		d := tc.d
		t.Run(tc.name, func(t *testing.T) {
			tensor.SetParallelism(1)
			refRng := rand.New(rand.NewSource(seed))
			ref, _, err := d.DivideInto(w, n, refRng, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			refNext := refRng.Float64()

			for _, workers := range []int{2, 3, 4, 8} {
				tensor.SetParallelism(workers)
				gotRng := rand.New(rand.NewSource(seed))
				got, _, err := d.DivideInto(w, n, gotRng, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					for j := range ref[i] {
						if math.Float64bits(ref[i][j]) != math.Float64bits(got[i][j]) {
							t.Fatalf("workers=%d: share %d coord %d differs: %g vs %g",
								workers, i, j, ref[i][j], got[i][j])
						}
					}
				}
				if next := gotRng.Float64(); next != refNext {
					t.Fatalf("workers=%d: rng state diverged (next draw %g, want %g)",
						workers, next, refNext)
				}
			}
		})
	}
}

// TestParallelDivideReconstructs sanity-checks that the fanned-out
// kernels still satisfy the additive-share contract.
func TestParallelDivideReconstructs(t *testing.T) {
	w := make([]float64, tensor.ParallelVecFloor+5)
	copy(w, []float64{1.5, -2.25, 0, 3.75, 1e-3})
	for _, d := range []Divider{ScalarDivider{}, MaskDivider{}} {
		shares, _, err := d.DivideInto(w, 4, rand.New(rand.NewSource(5)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := Reconstruct(shares)
		if err != nil {
			t.Fatal(err)
		}
		for j := range w {
			if math.Abs(sum[j]-w[j]) > 1e-12 {
				t.Fatalf("%s: coord %d reconstructs to %g, want %g", d.Name(), j, sum[j], w[j])
			}
		}
	}
}
