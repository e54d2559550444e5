//go:build !amd64

package tensor

// kernel4x8 adds A·B into the 4×8 tile of C at c (row stride ldc) over
// kc steps of the shared dimension, B(p, j) being b[p*ldb+j].
func kernel4x8(c []float64, ldc int, a strided, b []float64, ldb, kc int) {
	addBlock(c, ldc, a, b, ldb, 4, 8, kc)
}
