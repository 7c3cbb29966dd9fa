// Package dataflow implements the parallel-dataflow (PD) substrate of the
// Vista reproduction: partitioned in-memory tables with a driver/executor
// execution model, shuffle-hash and broadcast key-key joins, serialized and
// deserialized persistence formats with disk spill, and memory accounting
// against the abstract memory model of internal/memory. It plays the role
// Spark and Ignite play in the paper (Section 2) — scaled to a single
// process, with nodes and core slots modeled by goroutine scheduling.
package dataflow

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// the structured feature vector X, the raw (compressed) image payload I, and
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
// null-tracking bitmap) followed by variable-length payloads with
// offset/length words. Feature tensors are encoded as shape-prefixed float32
// runs.

// null-bitmap bits for the row's variable-length fields.
const (
	nullStructured = 1 << iota
	nullImage
	nullFeatures
)

var (
	// ErrCorruptRow indicates a malformed encoded row.
	ErrCorruptRow = errors.New("dataflow: corrupt row encoding")
	byteOrder     = binary.LittleEndian
)

// EncodeRow appends the binary encoding of r to dst and returns the extended
// slice.
func EncodeRow(dst []byte, r *Row) []byte {
	var scratch [8]byte
	put64 := func(v uint64) {
		byteOrder.PutUint64(scratch[:], v)
		dst = append(dst, scratch[:8]...)
	}
	put32 := func(v uint32) {
		byteOrder.PutUint32(scratch[:4], v)
		dst = append(dst, scratch[:4]...)
	}

	put64(uint64(r.ID))
	put32(math.Float32bits(r.Label))
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
	put32(nulls)

	put32(uint32(len(r.Structured)))
	for _, v := range r.Structured {
		put32(math.Float32bits(v))
	}
	put32(uint32(len(r.Image)))
	dst = append(dst, r.Image...)

	var nTensors uint32
	if r.Features != nil {
		nTensors = uint32(r.Features.Len())
	}
	put32(nTensors)
	for i := 0; i < int(nTensors); i++ {
		t := r.Features.Get(i)
		s := t.Shape()
		put32(uint32(len(s)))
		for _, d := range s {
			put32(uint32(d))
		}
		for _, v := range t.Data() {
			put32(math.Float32bits(v))
		}
	}
	return dst
}

// rowReader decodes rows from a byte stream.
type rowReader struct {
	buf []byte
	off int
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
		if rr.remaining() < int(nStr)*4 {
			return r, ErrCorruptRow
		}
		r.Structured = make([]float32, nStr)
		for i := range r.Structured {
			r.Structured[i] = math.Float32frombits(byteOrder.Uint32(rr.buf[rr.off:]))
			rr.off += 4
		}
	}

	nImg, err := rr.u32()
	if err != nil {
		return r, err
	}
	if nImg > 0 || nulls&nullImage == 0 {
		if rr.remaining() < int(nImg) {
			return r, ErrCorruptRow
		}
		r.Image = make([]byte, nImg)
		copy(r.Image, rr.buf[rr.off:rr.off+int(nImg)])
		rr.off += int(nImg)
	}

	nTensors, err := rr.u32()
	if err != nil {
		return r, err
	}
	if nulls&nullFeatures == 0 {
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
			shape[d] = int(dim)
			elems *= int(dim)
		}
		if rr.remaining() < elems*4 {
			return r, ErrCorruptRow
		}
		data := make([]float32, elems)
		for j := range data {
			data[j] = math.Float32frombits(byteOrder.Uint32(rr.buf[rr.off:]))
			rr.off += 4
		}
		t, err := tensor.FromSlice(data, shape...)
		if err != nil {
			return r, ErrCorruptRow
		}
		if r.Features == nil {
			r.Features = tensor.NewTensorList()
		}
		r.Features.Append(t)
	}
	return r, nil
}

// EncodeRows encodes a row slice into a single compressed blob — the
// "compressed serialized" persistence format of Section 4.2.3.
func EncodeRows(rows []Row) ([]byte, error) {
	if err := faultinject.Hit(FaultRowEncode); err != nil {
		return nil, fmt.Errorf("dataflow: encode rows: %w", err)
	}
	var raw []byte
	var scratch [4]byte
	byteOrder.PutUint32(scratch[:], uint32(len(rows)))
	raw = append(raw, scratch[:]...)
	for i := range rows {
		raw = EncodeRow(raw, &rows[i])
	}
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	if _, err := w.Write(raw); err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("dataflow: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeRows decodes a blob produced by EncodeRows.
func DecodeRows(blob []byte) ([]Row, error) {
	if err := faultinject.Hit(FaultRowDecode); err != nil {
		return nil, fmt.Errorf("dataflow: decode rows: %w", err)
	}
	r := flate.NewReader(bytes.NewReader(blob))
	raw, err := io.ReadAll(r)
	if err != nil {
		// A blob that will not decompress is a corrupt encoding (e.g. a
		// torn spill file); surface the typed sentinel, not a bare flate
		// error, so callers can classify the failure.
		return nil, fmt.Errorf("%w: decompress: %v", ErrCorruptRow, err)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: decompress: %v", ErrCorruptRow, err)
	}
	rr := &rowReader{buf: raw}
	n, err := rr.u32()
	if err != nil {
		return nil, err
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
