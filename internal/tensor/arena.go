package tensor

import (
	"math/bits"
	"sync"
)

// This file implements the buffer arena behind the inference path: a set of
// size-classed sync.Pools of float32 slabs that a partition's batch slabs
// (images decoded or raw carries gathered into their slots), the
// convolution's padded inputs, scratch outputs and staged residuals,
// activation batches (convolution and pooling outputs, a residual block's
// intermediates included), max pooling's folded row and the GEMM's edge
// strips draw from, so steady-state inference over a partition's batches
// recycles a fixed working set instead of allocating fresh tensors per call
// and leaning on the garbage collector. A batch of B images takes B times
// one image's slabs, at most cnn.InferenceBatch images per UDF thread. There
// are no column buffers: a convolution reads its padded input through an
// offset table, and that slab is about 1/K² the size of the column matrix a
// K×K kernel would need.
//
// Slabs are handed out dirty: every consumer must overwrite the full slice it
// requested. Decode and DecodeItem, SetItem and Item, the padded-input copy,
// the GEMM, the pooling kernels and GridMaxPool all write every element of
// what they take (a batch slab is written slot by slot), so no zeroing pass
// runs on the hot path; the consumers that need zeros (the padding itself
// and the GEMM's padded edge strip) write their own. The one exception is the
// wide grid's staged residual, whose columns past the output width stay dirty
// because they feed only scratch-C columns that are never read.

// minSlabClass is the smallest pooled slab size (2^minSlabClass float32s);
// requests below it are padded up. maxSlabClass bounds pooling: larger
// requests fall through to plain make and are dropped on recycle, so a
// one-off giant tensor cannot pin memory in the pool forever.
const (
	minSlabClass = 8  // 256 floats = 1 KiB
	maxSlabClass = 24 // 16 Mi floats = 64 MiB
)

// slabPools[c] holds slices with cap exactly 2^c.
var slabPools [maxSlabClass + 1]sync.Pool

// slabClass returns the pool class for a request of n floats, or -1 when the
// request is too large to pool.
func slabClass(n int) int {
	if n <= 0 {
		return minSlabClass
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c < minSlabClass {
		return minSlabClass
	}
	if c > maxSlabClass {
		return -1
	}
	return c
}

// getSlab returns a length-n float32 slice with undefined contents, drawn
// from the slab pool when a recycled slab of the right class is available.
func getSlab(n int) []float32 {
	c := slabClass(n)
	if c < 0 {
		return make([]float32, n)
	}
	if v := slabPools[c].Get(); v != nil {
		return (*(v.(*[]float32)))[:n]
	}
	return make([]float32, n, 1<<c)
}

// putSlab returns a slab obtained from getSlab (or any float32 slice) to the
// pool. Slices whose capacity is not an exact pooled class are dropped.
func putSlab(s []float32) {
	c := slabClass(cap(s))
	if c < 0 || cap(s) != 1<<c {
		return
	}
	full := s[:cap(s)]
	slabPools[c].Put(&full)
}

// newUninit allocates a tensor whose storage comes from the slab pool and is
// NOT zeroed. Callers must write every element. It is the allocation used by
// kernels that fully overwrite their output (Decode, GEMM conv, pooling).
func newUninit(shape ...int) *Tensor {
	s := Shape(shape)
	return &Tensor{shape: s.Clone(), data: getSlab(s.NumElements())}
}

// Recycle returns the tensor's storage to the slab pool and invalidates the
// tensor: any later access panics rather than silently reading reused memory.
// Only recycle tensors that are provably unreachable — in particular never a
// tensor that another tensor aliases (Flatten/Reshape views share storage).
func Recycle(t *Tensor) {
	if t == nil || t.data == nil {
		return
	}
	putSlab(t.data)
	t.data = nil
}

// SameStorage reports whether two tensors share the same backing array. All
// aliasing ops in this package (Flatten, Reshape, in-place ops returning
// their input) preserve the base pointer, so comparing first elements is a
// sound alias check for storage produced here.
func SameStorage(a, b *Tensor) bool {
	return a != nil && b != nil && len(a.data) > 0 && len(b.data) > 0 && &a.data[0] == &b.data[0]
}
