package tensor

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ErrCorrupt indicates a malformed encoded tensor.
var ErrCorrupt = errors.New("tensor: corrupt encoding")

// Encode serializes a tensor into a flate-compressed binary blob:
// rank, dims, then float32 data, all little-endian. It is the "raw image"
// format of this reproduction — like JPEG in the paper, the on-disk image is
// much smaller than its decoded tensor (Section 1.1).
func Encode(t *Tensor) ([]byte, error) {
	shape := t.Shape()
	raw := make([]byte, 0, 4+4*len(shape)+4*len(t.Data()))
	var scratch [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		raw = append(raw, scratch[:]...)
	}
	put(uint32(len(shape)))
	for _, d := range shape {
		put(uint32(d))
	}
	for _, v := range t.Data() {
		put(math.Float32bits(v))
	}
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("tensor: encode: %w", err)
	}
	if _, err := w.Write(raw); err != nil {
		return nil, fmt.Errorf("tensor: encode: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("tensor: encode: %w", err)
	}
	return out.Bytes(), nil
}

// inflater is the reusable state of one Decode: the flate decompressor (its
// 32 KiB window and Huffman tables are the bulk of what flate.NewReader
// allocates) and the buffer the payload inflates into.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // also a flate.Resetter
	raw []byte
}

var inflaters = sync.Pool{New: func() any { return &inflater{fr: flate.NewReader(nil)} }}

// maxInflate bounds how much a deflate stream of n bytes can inflate to (the
// format tops out near 1032:1), so a corrupt header cannot size a buffer
// beyond what its blob could possibly fill.
func maxInflate(n int) int { return 1032*n + 64 }

// Decode reverses Encode. The payload is inflated by a pooled decompressor
// into a pooled buffer sized from the header, and the tensor's storage comes
// from the slab pool, so the caller may Recycle it once it is consumed.
func Decode(blob []byte) (*Tensor, error) {
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	z.src.Reset(blob)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var head [4 + 4*8]byte
	if _, err := io.ReadFull(z.fr, head[:4]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rank := int(binary.LittleEndian.Uint32(head[:]))
	if rank > 8 {
		return nil, ErrCorrupt
	}
	dims := head[4 : 4+4*rank]
	if _, err := io.ReadFull(z.fr, dims); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	shape := make(Shape, rank)
	elems, limit := 1, maxInflate(len(blob))/4
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
		if shape[i] <= 0 || shape[i] > limit/elems {
			return nil, ErrCorrupt
		}
		elems *= shape[i]
	}
	if cap(z.raw) < 4*elems {
		z.raw = make([]byte, 4*elems)
	}
	raw := z.raw[:4*elems]
	if _, err := io.ReadFull(z.fr, raw); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// The stream must end exactly where the header said the data does.
	if n, err := z.fr.Read(head[:1]); n != 0 || err != io.EOF {
		return nil, ErrCorrupt
	}
	t := newUninit(shape...)
	for i := range t.data {
		t.data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return t, nil
}
