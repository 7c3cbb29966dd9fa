package tensor

import "fmt"

// A batch is N items of one shape in one tensor, so that a layer runs over
// all of them in one call. N images of shape (C, H, W) are one (C, N, H, W)
// tensor: channel-major, so a convolution's C_out × (N·H·W) GEMM output is
// the next layer's batch as it stands, and one channel of one image is a
// contiguous H×W plane. N vectors of length D are one (N, D) tensor, a row
// per vector. A CHW image or a vector is the batch of one: its layout is the
// N = 1 case of the batched one, and every op here takes either.

// BatchLen returns the number of items a tensor of shape s holds: N of a
// (C, N, H, W) or (N, D) batch, 1 of a CHW image or a vector.
func BatchLen(s Shape) int {
	switch len(s) {
	case 4:
		return s[1]
	case 2:
		return s[0]
	}
	return 1
}

// ItemShape returns the shape of one item of a batch of shape s: (C, H, W)
// of a (C, N, H, W) batch, (D) of an (N, D) one, and s itself otherwise.
func ItemShape(s Shape) Shape {
	switch len(s) {
	case 4:
		return Shape{s[0], s[2], s[3]}
	case 2:
		return Shape{s[1]}
	}
	return s.Clone()
}

// batchShape returns the shape of a batch of n items of shape item: a CHW
// item batches to (C, n, H, W), any other to (n, elements).
func batchShape(item Shape, n int) Shape {
	if len(item) == 3 {
		return Shape{item[0], n, item[1], item[2]}
	}
	return Shape{n, item.NumElements()}
}

// BatchLike returns the shape holding one item of shape item for each item
// of a tensor of shape like: a batch when like is one, and item itself when
// like is a single image or vector.
func BatchLike(like, item Shape) Shape {
	if len(like) == 4 || len(like) == 2 {
		return batchShape(item, BatchLen(like))
	}
	return item
}

// planes splits a CHW image or a (C, N, H, W) batch into its dimensions.
func planes(s Shape) (c, n, h, w int, ok bool) {
	switch len(s) {
	case 3:
		return s[0], 1, s[1], s[2], true
	case 4:
		return s[0], s[1], s[2], s[3], true
	}
	return 0, 0, 0, 0, false
}

// NewBatch returns a batch of n items of shape item whose storage comes from
// the slab pool and is NOT zeroed: every item must be written (SetItem,
// DecodeItem) before a layer reads it.
func NewBatch(item Shape, n int) *Tensor {
	return newUninit(batchShape(item, n)...)
}

// itemRuns says where item i of a batch of shape s lives: runs runs of run
// floats, the first at off and one every stride floats, holding the item's
// elements in order.
func itemRuns(s Shape, i int) (off, run, stride, runs int) {
	if len(s) == 4 {
		hw := s[2] * s[3]
		return i * hw, hw, s[1] * hw, s[0]
	}
	d := s.NumElements() / BatchLen(s)
	return i * d, d, d, 1
}

// Item copies item i of batch b into a tensor of the item's shape, drawn
// from the slab pool.
func Item(b *Tensor, i int) *Tensor {
	out := newUninit(ItemShape(b.shape)...)
	off, run, stride, runs := itemRuns(b.shape, i)
	for r := 0; r < runs; r++ {
		copy(out.data[r*run:][:run], b.data[off+r*stride:])
	}
	return out
}

// SetItem copies x into item i of batch b. x must have the batch's item
// shape.
func SetItem(b *Tensor, i int, x *Tensor) error {
	if item := ItemShape(b.shape); !x.shape.Equal(item) {
		return fmt.Errorf("%w: item %v for a batch of %v", ErrShape, x.shape, item)
	}
	off, run, stride, runs := itemRuns(b.shape, i)
	for r := 0; r < runs; r++ {
		copy(b.data[off+r*stride:][:run], x.data[r*run:])
	}
	return nil
}
