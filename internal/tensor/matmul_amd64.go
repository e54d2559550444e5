package tensor

// useAVX selects the assembly micro-kernel. It is fixed at init from
// CPUID; tests clear it to run the pure-Go kernel on the same inputs.
var useAVX = avxSupported()

// kernel4x8 adds A·B into the 4×8 tile of C at c (row stride ldc) over
// kc steps of the shared dimension, B(p, j) being b[p*ldb+j].
func kernel4x8(c []float64, ldc int, a strided, b []float64, ldb, kc int) {
	if !useAVX {
		addBlock(c, ldc, a, b, ldb, 4, 8, kc)
		return
	}
	// The assembly does no bounds checks: touch the far corner of every
	// operand here (strides are non-negative, so these are the maxima).
	_ = a.data[3*a.rs+(kc-1)*a.cs]
	_ = b[(kc-1)*ldb+7]
	_ = c[3*ldc+7]
	kernel4x8AVX(kc, &a.data[0], a.rs, a.cs, &b[0], ldb, &c[0], ldc)
}

// kernel4x8AVX is kernel4x8 in AVX assembly: per step p it broadcasts
// A(i, p) for the four rows and adds VMULPD products into eight YMM
// accumulators with VADDPD, in ascending p.
//
//go:noescape
func kernel4x8AVX(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0, the OS-enabled register state.
func xgetbv0() uint32

// avxSupported reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches (XCR0 bits 1 and 2).
func avxSupported() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6
}
