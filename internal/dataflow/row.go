// Package dataflow implements the parallel-dataflow (PD) substrate of the
// Vista reproduction: partitioned in-memory tables with a driver/executor
// execution model, shuffle-hash and broadcast key-key joins, serialized and
// deserialized persistence formats with disk spill, and memory accounting
// against the abstract memory model of internal/memory. It plays the role
// Spark and Ignite play in the paper (Section 2) — scaled to a single
// process: each operation runs a node's CoresPerNode task slots as that many
// worker goroutines.
package dataflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/faultinject"
	"repro/internal/tensor"
)

// Failpoint sites (see internal/faultinject) on the row codec, the choke
// point every spill, shuffle blob, and feature-store entry passes through.
const (
	// FaultRowEncode guards EncodeRows.
	FaultRowEncode = "dataflow/rowcodec.encode"
	// FaultRowDecode guards DecodeRows.
	FaultRowDecode = "dataflow/rowcodec.decode"
)

// Row is one record of a Vista table: the primary key, the downstream label,
// the structured feature vector X, the encoded image payload I, and
// any materialized feature layers carried as a TensorList (Section 3.3:
// "Image and feature tensors are stored with our custom TensorList
// datatype").
type Row struct {
	ID         int64
	Label      float32
	Structured []float32
	Image      []byte
	Features   *tensor.TensorList
}

// jvmObjectOverhead approximates the per-row constant overhead of holding a
// deserialized record in memory (headers, offsets, pointers) — Figure 14's
// fixed fields plus object headers.
const jvmObjectOverhead = 48

// MemBytes estimates the row's deserialized in-memory footprint.
func (r *Row) MemBytes() int64 {
	n := int64(jvmObjectOverhead)
	n += int64(len(r.Structured)) * 4
	n += int64(len(r.Image))
	if r.Features != nil {
		n += r.Features.SizeBytes() + int64(r.Features.Len())*24
	}
	return n
}

// AvgRowBytes samples a table's average in-memory row size over its first (up
// to) 100 rows — the image-row size the optimizer prices, and the one a
// calibration comparison must simulate against.
func AvgRowBytes(rows []Row) int64 {
	n := len(rows)
	if n == 0 {
		return 0
	}
	if n > 100 {
		n = 100
	}
	var total int64
	for i := 0; i < n; i++ {
		total += rows[i].MemBytes()
	}
	return total / int64(n)
}

// Clone deep-copies the row.
func (r *Row) Clone() Row {
	c := Row{ID: r.ID, Label: r.Label}
	if r.Structured != nil {
		c.Structured = append([]float32(nil), r.Structured...)
	}
	if r.Image != nil {
		c.Image = append([]byte(nil), r.Image...)
	}
	if r.Features != nil {
		c.Features = r.Features.Clone()
	}
	return c
}

// The binary row codec follows the paper's description of Spark's "Tungsten
// record format" (Appendix A, Figure 14): a fixed-length header (key, label,
// null-tracking bitmap) followed by length-prefixed variable-length payloads.
// One blob holds a row slice:
//
//	blob     = "VRW" version | count u32 | row × count
//	row      = id u64 | label u32 | nulls u32 | struct | image | features
//	struct   = n u32 | floats(n)
//	image    = n u32 | n bytes
//	features = n u32 | (rank u32 | dim u32 × rank | floats(∏dim)) × n
//	floats   = (zeros uvarint | nonzeros uvarint | float32 bits × nonzeros)*
//
// Fixed-width words are little-endian. Nothing is compressed: post-ReLU
// feature tensors are largely exact zeros, which the zero runs drop, and
// deflate saved 10–25 % of the bytes beyond them at 11 times the decode
// time. Image bytes are tensor.Encode blobs and are copied through as they
// are.

// null-bitmap bits for the row's variable-length fields.
const (
	nullStructured = 1 << iota
	nullImage
	nullFeatures
)

const (
	// rowFormat opens every blob: a magic and the format version. A blob of
	// any other version, such as the deflate-wrapped rows earlier builds
	// wrote, is refused as corrupt, never misread.
	rowFormat = "VRW\x01"
	// minRowBytes is the smallest encoded row: its header and three zero
	// length words.
	minRowBytes = 8 + 4 + 4 + 3*4
	// maxZeroRun caps the zeros one run claims. A run header is at least 3
	// bytes once its zero count needs two, so an encoded blob expands at most
	// 4×512/3 ≈ 683:1, inside maxFloats.
	maxZeroRun = 512
)

// maxFloats bounds how many float32 values a blob of n bytes may decode to:
// 1032:1, comfortably above the 683:1 the zero-run cap allows. A corrupt
// length word cannot size a slice beyond it.
func maxFloats(n int) int { return int(min((1032*int64(n)+64)/4, math.MaxInt)) }

var (
	// ErrCorruptRow indicates a malformed encoded row.
	ErrCorruptRow = errors.New("dataflow: corrupt row encoding")
	byteOrder     = binary.LittleEndian
)

// EncodeRows encodes a row slice into one blob: the serialized persistence
// format of Section 4.2.3, and the body of every spill file and feature-store
// entry.
func EncodeRows(rows []Row) ([]byte, error) {
	if err := faultinject.Hit(FaultRowEncode); err != nil {
		return nil, fmt.Errorf("dataflow: encode rows: %w", err)
	}
	dst := append([]byte(nil), rowFormat...)
	dst = byteOrder.AppendUint32(dst, uint32(len(rows)))
	for i := range rows {
		dst = encodeRow(dst, &rows[i])
	}
	return dst, nil
}

func encodeRow(dst []byte, r *Row) []byte {
	dst = byteOrder.AppendUint64(dst, uint64(r.ID))
	dst = byteOrder.AppendUint32(dst, math.Float32bits(r.Label))
	var nulls uint32
	if r.Structured == nil {
		nulls |= nullStructured
	}
	if r.Image == nil {
		nulls |= nullImage
	}
	if r.Features == nil {
		nulls |= nullFeatures
	}
	dst = byteOrder.AppendUint32(dst, nulls)

	dst = byteOrder.AppendUint32(dst, uint32(len(r.Structured)))
	dst = appendFloats(dst, r.Structured)
	dst = byteOrder.AppendUint32(dst, uint32(len(r.Image)))
	dst = append(dst, r.Image...)

	var nTensors int
	if r.Features != nil {
		nTensors = r.Features.Len()
	}
	dst = byteOrder.AppendUint32(dst, uint32(nTensors))
	for i := 0; i < nTensors; i++ {
		t := r.Features.Get(i)
		s := t.Shape()
		dst = byteOrder.AppendUint32(dst, uint32(len(s)))
		for _, d := range s {
			dst = byteOrder.AppendUint32(dst, uint32(d))
		}
		dst = appendFloats(dst, t.Data())
	}
	return dst
}

// appendFloats appends v as zero runs: each run is a count of zeros (at most
// maxZeroRun), a count of the non-zeros after them, and those non-zeros'
// float32 bits. Zero means the bit pattern 0, so -0 and NaN payloads are
// copied like any other value.
func appendFloats(dst []byte, v []float32) []byte {
	for i := 0; i < len(v); {
		z := i
		for z < len(v) && z-i < maxZeroRun && math.Float32bits(v[z]) == 0 {
			z++
		}
		nz := z
		for nz < len(v) && math.Float32bits(v[nz]) != 0 {
			nz++
		}
		dst = binary.AppendUvarint(dst, uint64(z-i))
		dst = binary.AppendUvarint(dst, uint64(nz-z))
		off := len(dst)
		dst = append(dst, make([]byte, 4*(nz-z))...)
		for j, f := range v[z:nz] {
			byteOrder.PutUint32(dst[off+4*j:], math.Float32bits(f))
		}
		i = nz
	}
	return dst
}

// rowReader decodes rows from a blob. budget is what is left of the blob's
// maxFloats allowance.
type rowReader struct {
	buf    []byte
	off    int
	budget int
}

func (rr *rowReader) remaining() int { return len(rr.buf) - rr.off }

func (rr *rowReader) u32() (uint32, error) {
	if rr.remaining() < 4 {
		return 0, ErrCorruptRow
	}
	v := byteOrder.Uint32(rr.buf[rr.off:])
	rr.off += 4
	return v, nil
}

func (rr *rowReader) u64() (uint64, error) {
	if rr.remaining() < 8 {
		return 0, ErrCorruptRow
	}
	v := byteOrder.Uint64(rr.buf[rr.off:])
	rr.off += 8
	return v, nil
}

func (rr *rowReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(rr.buf[rr.off:])
	if n <= 0 {
		return 0, ErrCorruptRow
	}
	rr.off += n
	return v, nil
}

// floats decodes n values, charged against the budget before anything is
// allocated.
func (rr *rowReader) floats(n int) ([]float32, error) {
	if n < 0 || n > rr.budget { // n < 0: a u32 length past a 32-bit int
		return nil, fmt.Errorf("%w: %d floats exceed the blob's bound", ErrCorruptRow, n)
	}
	rr.budget -= n
	dst := make([]float32, n)
	for i := 0; i < n; {
		z, err := rr.uvarint()
		if err != nil {
			return nil, err
		}
		nz, err := rr.uvarint()
		if err != nil {
			return nil, err
		}
		left := uint64(n - i)
		if (z == 0 && nz == 0) || z > left || nz > left-z {
			return nil, fmt.Errorf("%w: run (%d, %d) with %d values left", ErrCorruptRow, z, nz, left)
		}
		i += int(z)
		if uint64(rr.remaining()/4) < nz {
			return nil, ErrCorruptRow
		}
		src := rr.buf[rr.off : rr.off+4*int(nz)]
		run := dst[i : i+int(nz)]
		for j := range run {
			run[j] = math.Float32frombits(byteOrder.Uint32(src[4*j:]))
		}
		rr.off += len(src)
		i += len(run)
	}
	return dst, nil
}

func (rr *rowReader) decodeRow() (Row, error) {
	var r Row
	id, err := rr.u64()
	if err != nil {
		return r, err
	}
	r.ID = int64(id)
	lb, err := rr.u32()
	if err != nil {
		return r, err
	}
	r.Label = math.Float32frombits(lb)
	nulls, err := rr.u32()
	if err != nil {
		return r, err
	}

	nStr, err := rr.u32()
	if err != nil {
		return r, err
	}
	if nStr > 0 || nulls&nullStructured == 0 {
		if r.Structured, err = rr.floats(int(nStr)); err != nil {
			return r, err
		}
	}

	nImg, err := rr.u32()
	if err != nil {
		return r, err
	}
	if nImg > 0 || nulls&nullImage == 0 {
		if uint64(rr.remaining()) < uint64(nImg) {
			return r, ErrCorruptRow
		}
		r.Image = make([]byte, nImg)
		rr.off += copy(r.Image, rr.buf[rr.off:])
	}

	nTensors, err := rr.u32()
	if err != nil {
		return r, err
	}
	if nulls&nullFeatures == 0 || nTensors > 0 {
		r.Features = tensor.NewTensorList()
	}
	for i := 0; i < int(nTensors); i++ {
		rank, err := rr.u32()
		if err != nil {
			return r, err
		}
		if rank > 8 {
			return r, ErrCorruptRow
		}
		shape := make([]int, rank)
		elems := 1
		for d := range shape {
			dim, err := rr.u32()
			if err != nil {
				return r, err
			}
			if dim == 0 || uint64(dim) > uint64(rr.budget/elems) {
				return r, fmt.Errorf("%w: tensor dimension %d", ErrCorruptRow, dim)
			}
			shape[d] = int(dim)
			elems *= int(dim)
		}
		data, err := rr.floats(elems)
		if err != nil {
			return r, err
		}
		t, err := tensor.FromSlice(data, shape...)
		if err != nil {
			return r, ErrCorruptRow
		}
		r.Features.Append(t)
	}
	return r, nil
}

// DecodeRows decodes a blob produced by EncodeRows. A malformed blob — a
// wrong format word, a length or run that overruns the blob or its tensor, a
// run of (0, 0), more floats than maxFloats allows, trailing bytes — is
// ErrCorruptRow, and is refused before anything it claims is allocated.
func DecodeRows(blob []byte) ([]Row, error) {
	if err := faultinject.Hit(FaultRowDecode); err != nil {
		return nil, fmt.Errorf("dataflow: decode rows: %w", err)
	}
	if len(blob) < len(rowFormat) || string(blob[:len(rowFormat)]) != rowFormat {
		return nil, fmt.Errorf("%w: no %q format word", ErrCorruptRow, rowFormat)
	}
	rr := &rowReader{buf: blob, off: len(rowFormat), budget: maxFloats(len(blob))}
	n, err := rr.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(rr.remaining()/minRowBytes) {
		return nil, fmt.Errorf("%w: %d rows in %d bytes", ErrCorruptRow, n, rr.remaining())
	}
	rows := make([]Row, 0, n)
	for i := 0; i < int(n); i++ {
		row, err := rr.decodeRow()
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		rows = append(rows, row)
	}
	if rr.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRow, rr.remaining())
	}
	return rows, nil
}
