package tensor

import "fmt"

// All three matmul flavours (A·B, Aᵀ·B, A·Bᵀ) run through one kernel
// family: gemmPanel accumulates a row panel of C += op(A)·op(B) with the
// shared dimension tiled in kBlock slabs, and hands every full 4×8 tile
// of C to a register-blocked micro-kernel (kernel4x8). Operands are
// strided views, so the same micro-kernel reads A or Aᵀ in place; a Bᵀ
// operand, and the last strip of B when n is not a multiple of 8, is
// packed one kBlock×8 slab at a time into a fixed-size stack buffer, so
// the kernel always streams contiguous 8-wide B rows. A narrow last
// strip runs the kernel on a padded copy of its C tile. Rows past the
// last multiple of 4 go through addBlock, the scalar loop that is also
// the pure-Go micro-kernel.
//
// On amd64 with AVX (CPUID plus OS-enabled YMM state, probed once at
// init) kernel4x8 is an assembly kernel using separate VMULPD and
// VADDPD, never a fused multiply-add. Every path therefore computes each
// output element as the same sequence of rounded products added to the
// running value in ascending order of the shared index, starting from
// the element's prior value (zero for the non-accumulating flavours).
// The scalar loops write each product as float64(x*y), which the Go
// spec forbids the compiler to fuse, so architectures with FMA (arm64)
// round exactly as amd64 does. Results are bit-identical whichever
// kernel runs, however rows are split into panels, and at any worker
// count.

// parallelFlops is the multiply-add count above which a matmul fans
// its row panels out across the package worker pool. Below it, fan-out
// overhead (token accounting, goroutine launch) exceeds the work and
// the panel runs inline.
const parallelFlops = 1 << 20

// kBlock tiles the shared dimension so the touched slab of B (kBlock
// rows of an 8-column strip) stays in L1 while a row panel of A streams
// past it.
const kBlock = 256

// strided is a read-only matrix view: element (r, s) is data[r*rs+s*cs].
type strided struct {
	data   []float64
	rs, cs int
}

func (v strided) at(r, s int) float64 { return v.data[r*v.rs+s*v.cs] }

// sub returns the view whose origin is element (r, s).
func (v strided) sub(r, s int) strided {
	return strided{v.data[r*v.rs+s*v.cs:], v.rs, v.cs}
}

// gemmPanel accumulates rows [lo, hi) of C += A·B, where A is an m×k
// view, B a k×n view and C row-major with n columns. With overwrite it
// first zeroes those rows, computing C = A·B.
func gemmPanel(c []float64, n int, a, b strided, lo, hi, k int, overwrite bool) {
	if overwrite {
		clear(c[lo*n : hi*n])
	}
	var pack [kBlock * 8]float64
	var tile [4 * 8]float64
	for p0 := 0; p0 < k; p0 += kBlock {
		kc := min(kBlock, k-p0)
		for j := 0; j < n; j += 8 {
			// The strip of B feeding C columns [j, j+w): read in place
			// when its rows are contiguous, else packed.
			w := min(8, n-j)
			bs, ldb := b.sub(p0, j).data, b.rs
			if w < 8 || b.cs != 1 {
				packStrip(pack[:kc*8], b.sub(p0, j), w)
				bs, ldb = pack[:kc*8], 8
			}
			i := lo
			for ; i+4 <= hi; i += 4 {
				if w == 8 {
					kernel4x8(c[i*n+j:], n, a.sub(i, p0), bs, ldb, kc)
					continue
				}
				// A narrow strip runs the kernel on a copy of its C tile
				// padded to 8 columns. The zero B columns feed only the
				// padding, so each real element sees the same operations.
				for r := 0; r < 4; r++ {
					copy(tile[r*8:r*8+w], c[(i+r)*n+j:])
				}
				kernel4x8(tile[:], 8, a.sub(i, p0), bs, ldb, kc)
				for r := 0; r < 4; r++ {
					copy(c[(i+r)*n+j:(i+r)*n+j+w], tile[r*8:])
				}
			}
			if i < hi {
				addBlock(c[i*n+j:], n, a.sub(i, p0), bs, ldb, hi-i, w, kc)
			}
		}
	}
}

// packStrip copies the first w columns of src into dst as rows of 8
// (len(dst)/8 rows), zeroing columns w through 7.
func packStrip(dst []float64, src strided, w int) {
	for p := 0; p*8 < len(dst); p++ {
		row := dst[p*8 : p*8+8]
		for jj := range row {
			if jj < w {
				row[jj] = src.at(p, jj)
			} else {
				row[jj] = 0
			}
		}
	}
}

// addBlock is the scalar kernel: C(i, j) += Σ_p A(i, p)·b[p*ldb+j] for
// i < rows, j < cols, p < kc, each element accumulated in ascending p.
// float64(av * bv) rounds the product before the add, so no target
// fuses it into an FMA.
func addBlock(c []float64, ldc int, a strided, b []float64, ldb, rows, cols, kc int) {
	for i := 0; i < rows; i++ {
		crow := c[i*ldc : i*ldc+cols]
		for p := 0; p < kc; p++ {
			av := a.at(i, p)
			brow := b[p*ldb : p*ldb+cols]
			for j, bv := range brow {
				crow[j] += float64(av * bv)
			}
		}
	}
}

// view returns the stored matrix t, or its transpose when trans, as a
// strided view of t's data.
func view(t *Tensor, trans bool) strided {
	if trans {
		return strided{t.data, 1, t.shape[1]}
	}
	return strided{t.data, t.shape[1], 1}
}

// gemm computes dst = op(A)·op(B), or adds the product into dst when
// acc, where op transposes A when transA and B when transB. It fans row
// panels out across the worker pool once the product is large enough
// to pay for it.
func gemm(dst, a, b *Tensor, transA, transB, acc bool) {
	m, n := dst.shape[0], dst.shape[1]
	k := a.shape[1]
	if transA {
		k = a.shape[0]
	}
	if 2*m*k*n < parallelFlops {
		gemmPanel(dst.data, n, view(a, transA), view(b, transB), 0, m, k, !acc)
		return
	}
	ParallelRows(m, func(lo, hi int) {
		gemmPanel(dst.data, dst.shape[1], view(a, transA), view(b, transB), lo, hi, k, !acc)
	})
}

func checkMatMul(a, b *Tensor, kind string) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("%w: %s requires rank-2 operands, got %v and %v", ErrShape, kind, a.shape, b.shape)
	}
	return nil
}

func checkDst(dst *Tensor, m, n int, kind string) error {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: %s destination %v, want [%d %d]", ErrShape, kind, dst.shape, m, n)
	}
	return nil
}

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmul"); err != nil {
		return nil, err
	}
	c := New(a.shape[0], b.shape[1])
	if err := MatMulInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulInto computes C = A·B into dst, which must be m×n. dst may hold
// stale data (it is overwritten) but must not alias a or b.
func MatMulInto(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmul"); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmul %v × %v", ErrShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmul"); err != nil {
		return err
	}
	gemm(dst, a, b, false, false, false)
	return nil
}

// MatMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n) without
// materializing the transpose.
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return nil, err
	}
	c := New(a.shape[1], b.shape[1])
	if err := MatMulTransAAcc(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulTransAInto computes C = Aᵀ·B into dst (m×n), overwriting it.
func MatMulTransAInto(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return err
	}
	if err := checkDst(dst, a.shape[1], b.shape[1], "matmulTransA"); err != nil {
		return err
	}
	dst.Zero()
	return MatMulTransAAcc(dst, a, b)
}

// MatMulTransAAcc accumulates C += Aᵀ·B into dst (m×n). This is the
// gradient-accumulation primitive: layers add weight gradients straight
// into the parameter's gradient tensor without a scratch product.
func MatMulTransAAcc(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmulTransA"); err != nil {
		return err
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmulTransA %v × %v", ErrShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmulTransA"); err != nil {
		return err
	}
	gemm(dst, a, b, true, false, true)
	return nil
}

// MatMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k) without
// materializing the transpose.
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if err := checkMatMul(a, b, "matmulTransB"); err != nil {
		return nil, err
	}
	c := New(a.shape[0], b.shape[0])
	if err := MatMulTransBInto(c, a, b); err != nil {
		return nil, err
	}
	return c, nil
}

// MatMulTransBInto computes C = A·Bᵀ into dst (m×n), overwriting it.
func MatMulTransBInto(dst, a, b *Tensor) error {
	if err := checkMatMul(a, b, "matmulTransB"); err != nil {
		return err
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmulTransB %v × %v", ErrShape, a.shape, b.shape)
	}
	if err := checkDst(dst, m, n, "matmulTransB"); err != nil {
		return err
	}
	gemm(dst, a, b, false, true, false)
	return nil
}
