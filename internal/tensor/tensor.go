// Package tensor provides dense float64 tensors and the linear-algebra
// primitives required by the neural-network stack in internal/nn.
//
// Tensors are row-major. The package is deliberately small: it implements
// exactly the operations the paper's CNN (Fig. 5) needs — matrix
// multiplication, elementwise arithmetic, im2col/col2im for convolutions —
// plus the vector arithmetic used by secret sharing and FedAvg, where model
// weights are treated as flat vectors.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	shape []int
	data  []float64
}

// ErrShape is returned (or wrapped) when operand shapes are incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// New creates a zero-filled tensor with the given shape.
// A tensor with no dimensions is a scalar holding one element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d elements for shape %v (want %d)", ErrShape, len(data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}, nil
}

// MustFromSlice is FromSlice that panics on error; for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// AppendShape appends the tensor's shape to dst and returns the result,
// for hot paths that want to record a shape without Shape's allocation.
func (t *Tensor) AppendShape(dst []int) []int { return append(dst, t.shape...) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutations are visible in the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view sharing storage with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: reshape %v to %v", ErrShape, t.shape, shape)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}, nil
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given indices.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", ix, t.shape[i], i))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddInPlace adds o elementwise into t.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("%w: add %v and %v", ErrShape, t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// SubInPlace subtracts o elementwise from t.
func (t *Tensor) SubInPlace(o *Tensor) error {
	if !SameShape(t, o) {
		return fmt.Errorf("%w: sub %v and %v", ErrShape, t.shape, o.shape)
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Add returns a+b as a new tensor.
func Add(a, b *Tensor) (*Tensor, error) {
	c := a.Clone()
	if err := c.AddInPlace(b); err != nil {
		return nil, err
	}
	return c, nil
}

// Sub returns a−b as a new tensor.
func Sub(a, b *Tensor) (*Tensor, error) {
	c := a.Clone()
	if err := c.SubInPlace(b); err != nil {
		return nil, err
	}
	return c, nil
}

// Mul returns the elementwise (Hadamard) product a⊙b.
func Mul(a, b *Tensor) (*Tensor, error) {
	if !SameShape(a, b) {
		return nil, fmt.Errorf("%w: mul %v and %v", ErrShape, a.shape, b.shape)
	}
	c := a.Clone()
	for i, v := range b.data {
		c.data[i] *= v
	}
	return c, nil
}

// Scaled returns s·t as a new tensor.
func Scaled(t *Tensor, s float64) *Tensor {
	c := t.Clone()
	c.Scale(s)
	return c
}

// Apply replaces every element x with f(x), in place.
func (t *Tensor) Apply(f func(float64) float64) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element; −Inf for an empty tensor.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the maximum element; −1 if empty.
func (t *Tensor) ArgMax() int {
	best, bi := math.Inf(-1), -1
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("%w: transpose requires rank 2, got %v", ErrShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	c := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.data[j*m+i] = a.data[i*n+j]
		}
	}
	return c, nil
}

// Equal reports exact elementwise equality.
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports elementwise equality within absolute tolerance tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !SameShape(a, b) {
		return false
	}
	for i, v := range a.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small tensors for debugging.
func (t *Tensor) String() string {
	if len(t.data) > 64 {
		return fmt.Sprintf("Tensor(shape=%v, size=%d)", t.shape, len(t.data))
	}
	return fmt.Sprintf("Tensor(shape=%v, data=%v)", t.shape, t.data)
}
