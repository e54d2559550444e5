package secretshare

import (
	"math/rand"
	"testing"
)

// Reference implementations: the original per-share-allocation Divide
// code, kept verbatim so the flat-block rewrite can be proven
// bit-identical. Same rng state in, same bits out — the flat block is
// an allocation-layout change only.

func refScalarDivide(w []float64, n int, rng *rand.Rand) [][]float64 {
	rn := make([]float64, n)
	sum := 0.0
	for i := range rn {
		rn[i] = 1 - rng.Float64()
		sum += rn[i]
	}
	shares := make([][]float64, n)
	for i := range shares {
		f := rn[i] / sum
		s := make([]float64, len(w))
		for j, v := range w {
			s[j] = f * v
		}
		shares[i] = s
	}
	return shares
}

func refMaskDivide(w []float64, n int, scale float64, rng *rand.Rand) [][]float64 {
	shares := make([][]float64, n)
	last := make([]float64, len(w))
	copy(last, w)
	for i := 0; i < n-1; i++ {
		s := make([]float64, len(w))
		for j := range s {
			r := (rng.Float64()*2 - 1) * scale
			s[j] = r
			last[j] -= r
		}
		shares[i] = s
	}
	shares[n-1] = last
	return shares
}

func requireBitIdentical(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("share count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("share %d: dim %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("share %d[%d]: %v, want %v (not bit-identical)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestDivideBitIdenticalToReference is satellite-level proof that the
// single-backing-array rewrite changed nothing observable: for every
// scheme, n, and seed tried, DivideInto — cold (nil scratch) and with
// recycled scratch — equals the original per-share-allocation code.
func TestDivideBitIdenticalToReference(t *testing.T) {
	w := make([]float64, 37)
	rng := rand.New(rand.NewSource(42))
	for i := range w {
		w[i] = rng.NormFloat64() * 10
	}
	for _, n := range []int{1, 2, 5, 8} {
		for seed := int64(0); seed < 5; seed++ {
			ref := refScalarDivide(w, n, rand.New(rand.NewSource(seed)))
			got, _, err := ScalarDivider{}.DivideInto(w, n, rand.New(rand.NewSource(seed)), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, got, ref)

			refM := refMaskDivide(w, n, 20, rand.New(rand.NewSource(seed)))
			gotM, _, err := MaskDivider{Scale: 20}.DivideInto(w, n, rand.New(rand.NewSource(seed)), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, gotM, refM)

			// The Into path with dirty recycled scratch must also match:
			// every element is overwritten, never accumulated into.
			block := make([]float64, n*len(w))
			for i := range block {
				block[i] = 99.25
			}
			views := make([][]float64, n)
			for _, d := range []Divider{ScalarDivider{}, MaskDivider{Scale: 20}} {
				want := ref
				if _, ok := d.(MaskDivider); ok {
					want = refM
				}
				gotI, blockOut, err := d.DivideInto(w, n, rand.New(rand.NewSource(seed)), block, views)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, gotI, want)
				block, views = blockOut, gotI
			}
		}
	}
}

// TestDivideSingleBackingAllocation pins the allocation contract: one
// flat block + one views header (+ the small rn vector for the scalar
// scheme), regardless of n. The old code paid n+1 allocations.
func TestDivideSingleBackingAllocation(t *testing.T) {
	w := make([]float64, 256)
	for i := range w {
		w[i] = float64(i)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 16
	for _, tc := range []struct {
		d      Divider
		budget float64
	}{
		{ScalarDivider{}, 3}, // block + views + rn
		{MaskDivider{Scale: 10}, 2},
	} {
		got := testing.AllocsPerRun(50, func() {
			if _, _, err := tc.d.DivideInto(w, n, rng, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: %v allocs for %d shares, budget %v — shares are not flat-block backed",
				tc.d.Name(), got, n, tc.budget)
		}
	}
}

// TestDivideIntoReusesScratch: with adequate scratch the only
// per-call allocation is ScalarDivider's rn vector, and the returned
// views alias the caller's block.
func TestDivideIntoReusesScratch(t *testing.T) {
	w := make([]float64, 64)
	for i := range w {
		w[i] = float64(i) * 0.5
	}
	rng := rand.New(rand.NewSource(2))
	const n = 8
	block := make([]float64, n*len(w))
	views := make([][]float64, n)

	shares, blockOut, err := MaskDivider{Scale: 5}.DivideInto(w, n, rng, block, views)
	if err != nil {
		t.Fatal(err)
	}
	if &blockOut[0] != &block[0] {
		t.Fatal("adequate block was reallocated")
	}
	// Views alias the block: writing through the block must show
	// through the share.
	block[0] = 1234.5
	if shares[0][0] != 1234.5 {
		t.Fatal("share views do not alias the backing block")
	}
	// Capacity-clipped views: share i cannot reach share i+1 via append.
	if cap(shares[0]) != len(w) {
		t.Fatalf("share cap %d, want %d (views must be capacity-clipped)", cap(shares[0]), len(w))
	}

	got := testing.AllocsPerRun(50, func() {
		var err error
		shares, block, err = MaskDivider{Scale: 5}.DivideInto(w, n, rng, block, shares)
		if err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("MaskDivider DivideInto with warm scratch: %v allocs/op, want 0", got)
	}
	gotScalar := testing.AllocsPerRun(50, func() {
		var err error
		shares, block, err = ScalarDivider{}.DivideInto(w, n, rng, block, shares)
		if err != nil {
			t.Fatal(err)
		}
	})
	if gotScalar > 1 { // the rn vector
		t.Errorf("ScalarDivider DivideInto with warm scratch: %v allocs/op, want ≤1", gotScalar)
	}

	// Undersized scratch must regrow, not corrupt.
	small := make([]float64, 3)
	shares2, block2, err := MaskDivider{Scale: 5}.DivideInto(w, n, rng, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(block2) != n*len(w) {
		t.Fatalf("regrown block len %d, want %d", len(block2), n*len(w))
	}
	sum, err := Reconstruct(shares2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if diff := sum[i] - w[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("reconstruction off at %d: %v vs %v", i, sum[i], w[i])
		}
	}
}
