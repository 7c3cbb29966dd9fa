package tensor

import (
	"testing"
	"testing/quick"
)

func TestShapeNumElements(t *testing.T) {
	tests := []struct {
		name  string
		shape Shape
		want  int
	}{
		{"scalar", Shape{}, 1},
		{"vector", Shape{5}, 5},
		{"matrix", Shape{3, 4}, 12},
		{"chw", Shape{3, 227, 227}, 3 * 227 * 227},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.shape.NumElements(); got != tc.want {
				t.Errorf("NumElements(%v) = %d, want %d", tc.shape, got, tc.want)
			}
		})
	}
}

func TestShapeEqualClone(t *testing.T) {
	a := Shape{3, 4, 5}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone not equal: %v vs %v", a, b)
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatal("mutating clone affected original comparison")
	}
	if a.Equal(Shape{3, 4}) {
		t.Fatal("shapes of different rank compared equal")
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 2}).Valid() {
		t.Error("positive shape reported invalid")
	}
	if (Shape{0, 2}).Valid() {
		t.Error("zero dimension reported valid")
	}
	if (Shape{-1}).Valid() {
		t.Error("negative dimension reported valid")
	}
}

func TestNewAndAccessors(t *testing.T) {
	tt := New(2, 3)
	if tt.NumElements() != 6 {
		t.Fatalf("NumElements = %d, want 6", tt.NumElements())
	}
	tt.Set(7.5, 1, 2)
	if got := tt.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	if got := tt.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
	if tt.SizeBytes() != 24 {
		t.Errorf("SizeBytes = %d, want 24", tt.SizeBytes())
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, err := FromSlice(nil, 0); err == nil {
		t.Error("expected error for zero-dim shape")
	}
	got, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	if got.At(1, 1) != 4 {
		t.Errorf("At(1,1) = %v, want 4", got.At(1, 1))
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestFlatten(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	f := a.Flatten()
	if !f.Shape().Equal(Shape{4}) {
		t.Fatalf("Flatten shape = %v, want (4)", f.Shape())
	}
	// Definition 3.5: output length is the product of dims.
	if f.NumElements() != a.NumElements() {
		t.Error("flatten changed element count")
	}
}

// fill sets every element of the tensor to v.
func (t *Tensor) fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

func TestFillMaxAbsL2(t *testing.T) {
	a := New(3)
	a.fill(-2)
	if a.MaxAbs() != 2 {
		t.Errorf("MaxAbs = %v, want 2", a.MaxAbs())
	}
}

func TestTensorList(t *testing.T) {
	a := New(2, 2)
	b := New(3)
	l := NewTensorList(a, b)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if l.Get(1) != b {
		t.Error("Get(1) returned wrong tensor")
	}
	l.Append(New(1))
	if l.Len() != 3 {
		t.Errorf("Len after Append = %d, want 3", l.Len())
	}
	if got, want := l.SizeBytes(), int64(4*4+3*4+1*4); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	c := l.Clone()
	c.Get(0).Set(5, 0, 0)
	if a.At(0, 0) != 0 {
		t.Error("TensorList.Clone is shallow")
	}
}

// Property: for any positive dims, a tensor of that shape has
// NumElements == len(Data) and SizeBytes == 4*NumElements.
func TestTensorSizeProperty(t *testing.T) {
	f := func(d1, d2 uint8) bool {
		a, b := int(d1%16)+1, int(d2%16)+1
		tt := New(a, b)
		return tt.NumElements() == len(tt.Data()) && tt.SizeBytes() == int64(4*a*b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
