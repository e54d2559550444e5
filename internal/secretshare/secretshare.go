// Package secretshare implements the additive secret-sharing primitives
// underlying Secure Average Computation:
//
//   - ScalarDivider — the paper's Alg. 1: the weight vector is split into
//     N shares by N normalized random fractions, par_w_i = prn_i·w.
//   - MaskDivider — standard additive masking: the first N−1 shares are
//     uniform random vectors and the last is w minus their sum. Every
//     proper subset of shares is (information-theoretically) independent
//     of w, which is strictly stronger than Alg. 1's collinear shares.
//   - Replicated k-out-of-n share assignment (Ito et al. [7], as used by
//     the paper's Alg. 4): peer j holds the n−k+1 consecutive shares
//     j, j+1, …, j+n−k (mod n), so any k surviving peers still cover all
//     n shares.
//
// All shares reconstruct exactly: Σ_i share_i = w (up to floating-point
// rounding, which the tests bound).
package secretshare

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Divider splits a secret vector into n additive shares.
type Divider interface {
	// DivideInto returns n share vectors whose elementwise sum is w.
	// All n shares are written into one flat block and the returned
	// views are slices of it, one per share. The block and views
	// arguments are caller-owned scratch, regrown only when too small:
	// nil, nil allocates a fresh block, and handing back the returned
	// views and backing block on the next call reuses them. The shares
	// depend only on w, n and the rng state, never on the scratch.
	DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error)
	// Name identifies the scheme for logs and benchmarks.
	Name() string
}

// sliceBlock carves an n×dim flat block into n full-capacity views.
// Both scratch arguments are reused when large enough. Views are
// capacity-clipped so an append through one share cannot corrupt its
// neighbour.
func sliceBlock(block []float64, views [][]float64, n, dim int) ([]float64, [][]float64) {
	if cap(block) < n*dim {
		block = make([]float64, n*dim)
	}
	block = block[:n*dim]
	if cap(views) < n {
		views = make([][]float64, n)
	}
	views = views[:n]
	for i := range views {
		views[i] = block[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return block, views
}

// ScalarDivider is the paper's Alg. 1: draw n random numbers rn_i from
// (0,1), normalize them to fractions prn_i = rn_i/Σrn, and emit shares
// prn_i·w. Shares are collinear with w; reconstruction is exact in
// expectation and to rounding in practice.
//
// The share fill runs on the shared tensor worker pool, split by
// coordinate panels, once the vector reaches tensor.ParallelVecFloor.
// The n RNG draws happen serially up front, so the draw order — and
// therefore every share and the rng state left behind — is
// bit-identical at any pool budget.
type ScalarDivider struct{}

// Name implements Divider.
func (ScalarDivider) Name() string { return "scalar (Alg. 1)" }

// scalarFill writes shares[i][j] = f[i]·w[j], one L1 block of w at a
// time.
type scalarFill struct {
	w, f   []float64
	shares [][]float64
}

func (k *scalarFill) Rows(lo, hi int) {
	for b := lo; b < hi; b += tensor.VecBlock {
		w := k.w[b:min(b+tensor.VecBlock, hi)]
		for i, s := range k.shares {
			f, s := k.f[i], s[b:b+len(w)]
			for j, v := range w {
				s[j] = f * v
			}
		}
	}
}

// scalarFills recycles fill kernels (and their fraction lists) so a
// division allocates nothing but its share block.
var scalarFills tensor.FreeList[scalarFill]

// DivideInto implements Divider.
func (d ScalarDivider) DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error) {
	if err := checkDivide(w, n); err != nil {
		return nil, nil, err
	}
	k := scalarFills.Get()
	k.f = k.f[:0]
	sum := 0.0
	for i := 0; i < n; i++ {
		// (0,1]: avoid an all-zero draw making the normalizer zero. The
		// conversion keeps arm64 from fusing the draw's scaling into the
		// subtraction.
		rn := 1 - float64(rng.Float64())
		k.f = append(k.f, rn)
		sum += rn
	}
	for i := range k.f {
		k.f[i] /= sum
	}
	block, shares := sliceBlock(block, views, n, len(w))
	k.w, k.shares = w, shares
	tensor.ParallelVec(len(w), k)
	k.w, k.shares = nil, nil
	scalarFills.Put(k)
	return shares, block, nil
}

// MaskDivider is standard additive secret sharing: shares 0..n−2 are
// uniform random vectors in [−Scale, Scale) and share n−1 is
// w − Σ(others). Scale should dominate the magnitude of the weights; the
// zero value uses Scale 1.
//
// The raw uniforms are drawn serially, in share-major, coordinate-minor
// order, leaving the rng in the same state at any pool budget; only the
// affine transform and the residual subtraction run on the tensor pool
// (split by coordinate panels once the vector reaches
// tensor.ParallelVecFloor). Each coordinate subtracts its masks in
// ascending share order, so the shares are bit-identical at any budget.
type MaskDivider struct {
	Scale float64
}

// Name implements Divider.
func (m MaskDivider) Name() string { return "mask (uniform additive)" }

// maskFill turns the raw uniforms u held in shares 0..n−2 into masks
// r = (2u−1)·scale and writes w − r_0 − r_1 − … into the last share,
// one L1 block at a time.
type maskFill struct {
	w      []float64
	shares [][]float64
	scale  float64
}

func (k *maskFill) Rows(lo, hi int) {
	n := len(k.shares)
	for b := lo; b < hi; b += tensor.VecBlock {
		e := min(b+tensor.VecBlock, hi)
		last := k.shares[n-1][b:e]
		copy(last, k.w[b:e])
		for _, s := range k.shares[:n-1] {
			s := s[b : b+len(last)]
			for j, u := range s {
				// Explicit conversions round each step, so no fused
				// multiply-add changes the masks on any architecture.
				r := float64((float64(u*2) - 1) * k.scale)
				s[j] = r
				last[j] -= r
			}
		}
	}
}

var maskFills tensor.FreeList[maskFill]

// DivideInto implements Divider.
func (m MaskDivider) DivideInto(w []float64, n int, rng *rand.Rand, block []float64, views [][]float64) ([][]float64, []float64, error) {
	if err := checkDivide(w, n); err != nil {
		return nil, nil, err
	}
	scale := m.Scale
	if scale == 0 {
		scale = 1
	}
	block, shares := sliceBlock(block, views, n, len(w))
	for _, s := range shares[:n-1] {
		for j := range s {
			s[j] = rng.Float64()
		}
	}
	k := maskFills.Get()
	k.w, k.shares, k.scale = w, shares, scale
	tensor.ParallelVec(len(w), k)
	k.w, k.shares = nil, nil
	maskFills.Put(k)
	return shares, block, nil
}

func checkDivide(w []float64, n int) error {
	if n < 1 {
		return fmt.Errorf("secretshare: cannot split into %d shares", n)
	}
	if len(w) == 0 {
		return fmt.Errorf("secretshare: empty secret")
	}
	return nil
}

// Reconstruct sums share vectors back into the secret.
func Reconstruct(shares [][]float64) ([]float64, error) {
	if len(shares) == 0 {
		return nil, fmt.Errorf("secretshare: no shares")
	}
	dim := len(shares[0])
	out := make([]float64, dim)
	for i, s := range shares {
		if len(s) != dim {
			return nil, fmt.Errorf("secretshare: share %d has %d elements, want %d", i, len(s), dim)
		}
		for j, v := range s {
			out[j] += v
		}
	}
	return out, nil
}

// ReplicaIndices returns the share indices peer holds under k-out-of-n
// replication: the n−k+1 consecutive indices peer, peer+1, …, peer+n−k,
// all mod n. With k = n each peer holds exactly its own share, recovering
// plain n-out-of-n sharing (Alg. 2).
func ReplicaIndices(peer, n, k int) ([]int, error) {
	out, err := AppendReplicaIndices(nil, peer, n, k)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendReplicaIndices appends peer's replica set to dst and returns the
// extended slice — the allocation-free form callers with a reusable
// backing array (the SAC scratch replica cache) build on. dst is
// returned unchanged on error.
func AppendReplicaIndices(dst []int, peer, n, k int) ([]int, error) {
	if err := checkKN(n, k); err != nil {
		return dst, err
	}
	if peer < 0 || peer >= n {
		return dst, fmt.Errorf("secretshare: peer %d out of [0,%d)", peer, n)
	}
	for j := peer; j <= peer+n-k; j++ {
		dst = append(dst, j%n)
	}
	return dst, nil
}

// HoldersOf returns the peers that hold share index idx under k-out-of-n
// replication: idx−(n−k), …, idx (mod n). Exactly n−k+1 peers hold each
// share, so the share survives any n−k simultaneous crashes.
func HoldersOf(idx, n, k int) ([]int, error) {
	if err := checkKN(n, k); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= n {
		return nil, fmt.Errorf("secretshare: share %d out of [0,%d)", idx, n)
	}
	out := make([]int, 0, n-k+1)
	for j := idx - (n - k); j <= idx; j++ {
		out = append(out, ((j%n)+n)%n)
	}
	return out, nil
}

func checkKN(n, k int) error {
	if n < 1 {
		return fmt.Errorf("secretshare: n = %d", n)
	}
	if k < 1 || k > n {
		return fmt.Errorf("secretshare: threshold k = %d out of [1,%d]", k, n)
	}
	return nil
}

// CoversAllShares reports whether the given set of alive peers jointly
// holds every one of the n shares under k-out-of-n replication.
func CoversAllShares(alive []int, n, k int) (bool, error) {
	if err := checkKN(n, k); err != nil {
		return false, err
	}
	held := make([]bool, n)
	for _, p := range alive {
		idx, err := ReplicaIndices(p, n, k)
		if err != nil {
			return false, err
		}
		for _, i := range idx {
			held[i] = true
		}
	}
	for _, h := range held {
		if !h {
			return false, nil
		}
	}
	return true, nil
}
