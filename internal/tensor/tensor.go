package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Shape is the size of each dimension of a tensor (Definition 3.1: the d-tuple
// (n1, ..., nd) of a d-dimensional tensor).
type Shape []int

// NumElements returns the total number of elements a tensor of this shape
// holds, i.e. the product of all dimensions. The empty shape has one element
// (a scalar).
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Valid reports whether every dimension is strictly positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// String renders the shape as, e.g., "(3, 224, 224)".
func (s Shape) String() string {
	if len(s) == 0 {
		return "()"
	}
	out := "("
	for i, d := range s {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d", d)
	}
	return out + ")"
}

// Tensor is a dense, row-major multidimensional array of float32 values
// (Definition 3.1).
type Tensor struct {
	shape Shape
	data  []float32
}

// ErrShape indicates a shape mismatch between a tensor and an operation.
var ErrShape = errors.New("tensor: shape mismatch")

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape)
	if !s.Valid() {
		panic(fmt.Sprintf("tensor.New: invalid shape %v", s))
	}
	return &Tensor{shape: s.Clone(), data: make([]float32, s.NumElements())}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	s := Shape(shape)
	if !s.Valid() {
		return nil, fmt.Errorf("%w: invalid shape %v", ErrShape, s)
	}
	if len(data) != s.NumElements() {
		return nil, fmt.Errorf("%w: %d elements for shape %v (want %d)",
			ErrShape, len(data), s, s.NumElements())
	}
	return &Tensor{shape: s.Clone(), data: data}, nil
}

// MustFromSlice is FromSlice but panics on error; intended for tests and
// statically-known shapes.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the underlying storage in row-major order. The returned slice
// aliases the tensor's storage.
func (t *Tensor) Data() []float32 { return t.data }

// NumElements returns the number of elements in the tensor.
func (t *Tensor) NumElements() int { return len(t.data) }

// SizeBytes returns the in-memory payload size of the tensor data
// (4 bytes per float32 element).
func (t *Tensor) SizeBytes() int64 { return int64(len(t.data)) * 4 }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: t.shape.Clone(), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Flatten implements a FlattenOp (Definition 3.5): it returns a rank-1 view of
// the tensor sharing the same storage.
func (t *Tensor) Flatten() *Tensor {
	return &Tensor{shape: Shape{len(t.data)}, data: t.data}
}

// MaxAbs returns the maximum absolute value in the tensor, or 0 for an empty
// tensor.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// TensorList is an indexed list of tensors of potentially different shapes
// (Definition 3.2). It is the datatype Vista uses to carry materialized
// feature layers through the dataflow system.
type TensorList struct {
	tensors []*Tensor
}

// NewTensorList builds a TensorList from the given tensors.
func NewTensorList(tensors ...*Tensor) *TensorList {
	return &TensorList{tensors: tensors}
}

// Len returns the number of tensors in the list.
func (l *TensorList) Len() int { return len(l.tensors) }

// Get returns the i-th tensor.
func (l *TensorList) Get(i int) *Tensor { return l.tensors[i] }

// Append adds a tensor to the end of the list.
func (l *TensorList) Append(t *Tensor) { l.tensors = append(l.tensors, t) }

// SizeBytes returns the total payload size of all tensors in the list.
func (l *TensorList) SizeBytes() int64 {
	var n int64
	for _, t := range l.tensors {
		n += t.SizeBytes()
	}
	return n
}

// Clone deep-copies the list and all its tensors.
func (l *TensorList) Clone() *TensorList {
	c := &TensorList{tensors: make([]*Tensor, len(l.tensors))}
	for i, t := range l.tensors {
		c.tensors[i] = t.Clone()
	}
	return c
}
