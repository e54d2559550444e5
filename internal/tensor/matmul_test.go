package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// forceParallelism pins the worker budget for a test and restores it.
func forceParallelism(t *testing.T, n int) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// bitsEqual reports whether a and b have the same shape and the same
// bits in every element (so it tells -0 from +0 and compares NaNs).
func bitsEqual(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// refMatMul is a naive triple loop used as the ground truth for every
// kernel variant. It accumulates each element from +0 in ascending
// order of the shared index with every product rounded before the add,
// the order and rounding the kernels guarantee, so they must match it
// bit for bit.
func refMatMul(a, b *Tensor, transA, transB bool) *Tensor {
	var m, k, n int
	at := func(i, p int) float64 { return a.data[i*a.shape[1]+p] }
	bt := func(p, j int) float64 { return b.data[p*b.shape[1]+j] }
	if transA {
		k, m = a.shape[0], a.shape[1]
		at = func(i, p int) float64 { return a.data[p*a.shape[1]+i] }
	} else {
		m, k = a.shape[0], a.shape[1]
	}
	if transB {
		n = b.shape[0]
		bt = func(p, j int) float64 { return b.data[j*b.shape[1]+p] }
	} else {
		n = b.shape[1]
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(at(i, p) * bt(p, j))
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

// shapes covers both the small serial regime and the large parallel
// regime (conv-sized operands comfortably above parallelFlops).
var matmulShapes = []struct{ m, k, n int }{
	{3, 4, 5},
	{17, 31, 7},
	{64, 64, 64},
	{900, 288, 32},  // paper-CNN conv lowering, batch 1
	{1800, 64, 288}, // conv backward dcols slab
}

func TestMatMulVariantsMatchReference(t *testing.T) {
	forceParallelism(t, 1)
	for _, par := range []int{1, 4} {
		rng := rand.New(rand.NewSource(7))
		SetParallelism(par)
		for _, s := range matmulShapes {
			a := randMat(rng, s.m, s.k)
			b := randMat(rng, s.k, s.n)
			got, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMatMul(a, b, false, false); !bitsEqual(got, want) {
				t.Fatalf("par=%d MatMul %v differs from reference", par, s)
			}

			at := randMat(rng, s.k, s.m)
			got, err = MatMulTransA(at, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMatMul(at, b, true, false); !bitsEqual(got, want) {
				t.Fatalf("par=%d MatMulTransA %v differs from reference", par, s)
			}

			bt := randMat(rng, s.n, s.k)
			got, err = MatMulTransB(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMatMul(a, bt, false, true); !bitsEqual(got, want) {
				t.Fatalf("par=%d MatMulTransB %v differs from reference", par, s)
			}
		}
	}
}

// TestMatMulParallelBitIdentical asserts the determinism contract the
// parallel training engine relies on: any worker budget produces
// bit-for-bit identical products.
func TestMatMulParallelBitIdentical(t *testing.T) {
	forceParallelism(t, 1)
	rng := rand.New(rand.NewSource(11))
	a := randMat(rng, 700, 310)
	b := randMat(rng, 310, 130)
	at := randMat(rng, 310, 700)
	bt := randMat(rng, 130, 310)

	serial, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	serialTA, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	serialTB, err := MatMulTransB(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 8} {
		SetParallelism(par)
		p, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serial, p) {
			t.Fatalf("parallelism %d changed MatMul bits", par)
		}
		pTA, err := MatMulTransA(at, b)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serialTA, pTA) {
			t.Fatalf("parallelism %d changed MatMulTransA bits", par)
		}
		pTB, err := MatMulTransB(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(serialTB, pTB) {
			t.Fatalf("parallelism %d changed MatMulTransB bits", par)
		}
	}
}

func TestMatMulIntoReusesStaleBuffers(t *testing.T) {
	forceParallelism(t, 4)
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 120, 90)
	b := randMat(rng, 90, 110)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(120, 110)
	dst.Fill(123.456) // stale garbage must be overwritten
	if err := MatMulInto(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, want) {
		t.Fatal("MatMulInto with stale dst differs from MatMul")
	}

	bt := randMat(rng, 110, 90)
	wantTB, err := MatMulTransB(a, bt)
	if err != nil {
		t.Fatal(err)
	}
	dst.Fill(-9)
	if err := MatMulTransBInto(dst, a, bt); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, wantTB) {
		t.Fatal("MatMulTransBInto with stale dst differs from MatMulTransB")
	}

	at := randMat(rng, 90, 120)
	wantTA, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	dst.Fill(7)
	if err := MatMulTransAInto(dst, at, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, wantTA) {
		t.Fatal("MatMulTransAInto with stale dst differs from MatMulTransA")
	}
}

func TestMatMulTransAAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	at := randMat(rng, 40, 30)
	b := randMat(rng, 40, 20)
	prod, err := MatMulTransA(at, b)
	if err != nil {
		t.Fatal(err)
	}
	acc := New(30, 20)
	acc.Fill(1)
	if err := MatMulTransAAcc(acc, at, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range acc.data {
		if diff := v - (prod.data[i] + 1); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("acc[%d] = %v, want %v", i, v, prod.data[i]+1)
		}
	}
}

// TestMatMulZeroTimesNonFiniteIsNaN: 0·±Inf and 0·NaN are NaN in IEEE
// arithmetic, and a diverged model must not have them masked to a
// finite 0 for small operands while large ones report NaN. Every
// flavour returns the same NaN bits below and above parallelFlops.
func TestMatMulZeroTimesNonFiniteIsNaN(t *testing.T) {
	forceParallelism(t, 2)
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	type flavour struct {
		name string
		run  func(m, k, n int) *Tensor
	}
	rng := rand.New(rand.NewSource(13))
	flavours := []flavour{
		{"MatMul", func(m, k, n int) *Tensor {
			a, b := randMat(rng, m, k), randMat(rng, k, n)
			a.data[0] = 0           // A(0, 0)
			copy(b.data, nonFinite) // B(0, 0..2)
			c, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"MatMulTransAAcc", func(m, k, n int) *Tensor {
			a, b := randMat(rng, k, m), randMat(rng, k, n)
			a.data[0] = 0
			copy(b.data, nonFinite)
			c := New(m, n)
			if err := MatMulTransAAcc(c, a, b); err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"MatMulTransB", func(m, k, n int) *Tensor {
			a, b := randMat(rng, m, k), randMat(rng, n, k)
			a.data[0] = 0
			for j, v := range nonFinite {
				b.data[j*k] = v // B(0, j) of the transposed operand
			}
			c, err := MatMulTransB(a, b)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, f := range flavours {
		small := f.run(3, 4, 5)
		large := f.run(96, 128, 48)
		if 2*3*4*5 >= parallelFlops || 2*96*128*48 < parallelFlops {
			t.Fatal("shapes no longer straddle parallelFlops")
		}
		for j := range nonFinite {
			s, l := small.data[j], large.data[j]
			if !math.IsNaN(s) || !math.IsNaN(l) {
				t.Fatalf("%s: C(0,%d) = %v (small), %v (large); want NaN", f.name, j, s, l)
			}
			if math.Float64bits(s) != math.Float64bits(l) {
				t.Fatalf("%s: C(0,%d) bits %#x (small) vs %#x (large)", f.name, j, math.Float64bits(s), math.Float64bits(l))
			}
		}
	}
}

func TestMatMulIntoShapeErrors(t *testing.T) {
	a, b := New(3, 4), New(4, 5)
	if err := MatMulInto(New(3, 6), a, b); err == nil {
		t.Fatal("bad dst accepted")
	}
	if err := MatMulTransAInto(New(3, 5), a, b); err == nil {
		t.Fatal("bad transA dst accepted")
	}
	if err := MatMulTransBInto(New(3, 4), a, New(5, 4)); err == nil {
		t.Fatal("bad transB dst accepted")
	}
	if err := MatMulInto(New(3, 5), a, New(3, 5)); err == nil {
		t.Fatal("inner mismatch accepted")
	}
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := New(2, 3, 7, 6)
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	for _, pad := range []int{0, 1} {
		want, outH, outW, err := Im2Col(x, 3, 3, 1, pad)
		if err != nil {
			t.Fatal(err)
		}
		dst := New(want.shape[0], want.shape[1])
		dst.Fill(42) // padding zeros must be rewritten over stale data
		gotH, gotW, err := Im2ColInto(dst, x, 3, 3, 1, pad)
		if err != nil {
			t.Fatal(err)
		}
		if gotH != outH || gotW != outW {
			t.Fatalf("pad=%d: out %dx%d, want %dx%d", pad, gotH, gotW, outH, outW)
		}
		if !Equal(dst, want) {
			t.Fatalf("pad=%d: Im2ColInto differs from Im2Col", pad)
		}

		wantImg, err := Col2Im(want, 2, 3, 7, 6, 3, 3, 1, pad)
		if err != nil {
			t.Fatal(err)
		}
		img := New(2, 3, 7, 6)
		img.Fill(-5)
		if err := Col2ImInto(img, dst, 3, 3, 1, pad); err != nil {
			t.Fatal(err)
		}
		if !Equal(img, wantImg) {
			t.Fatalf("pad=%d: Col2ImInto differs from Col2Im", pad)
		}
	}
}

func TestScratchReuse(t *testing.T) {
	var s Scratch
	a := s.Get(4, 8)
	if a.Size() != 32 {
		t.Fatalf("size %d", a.Size())
	}
	a.Fill(3)
	if b := s.Get(4, 8); b != a {
		t.Fatal("same shape did not reuse the cached tensor")
	}
	// Smaller request re-slices the same backing array.
	c := s.Get(2, 8)
	if c.Size() != 16 {
		t.Fatalf("size %d", c.Size())
	}
	if &c.data[0] != &a.data[0] {
		t.Fatal("smaller shape did not reuse the backing array")
	}
	if c.data[0] != 3 {
		t.Fatal("scratch should not clear contents")
	}
	// Larger request allocates.
	d := s.Get(16, 16)
	if d.Size() != 256 {
		t.Fatalf("size %d", d.Size())
	}
}

func TestParallelRowsCoversAllRows(t *testing.T) {
	forceParallelism(t, 4)
	for _, rows := range []int{1, 2, 3, 7, 64, 1000} {
		hit := make([]int32, rows)
		ParallelRows(rows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hit[i]++
			}
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("rows=%d: row %d visited %d times", rows, i, h)
			}
		}
	}
}
