package dataflow

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func sampleRow(id int64) Row {
	return Row{
		ID:         id,
		Label:      1,
		Structured: []float32{1.5, -2.25, 3},
		Image:      []byte{9, 8, 7, 6},
		Features: tensor.NewTensorList(
			tensor.MustFromSlice([]float32{1, 2, 3, 4}, 2, 2),
			tensor.MustFromSlice([]float32{5, 6}, 2),
		),
	}
}

// sameBits reports whether a and b hold the same float32 bit patterns (so -0
// differs from 0 and a NaN equals itself), with nil distinct from empty.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func rowsEqual(a, b *Row) bool {
	if a.ID != b.ID || math.Float32bits(a.Label) != math.Float32bits(b.Label) {
		return false
	}
	if !sameBits(a.Structured, b.Structured) {
		return false
	}
	if !reflect.DeepEqual(a.Image, b.Image) {
		return false
	}
	an, bn := 0, 0
	if a.Features != nil {
		an = a.Features.Len()
	}
	if b.Features != nil {
		bn = b.Features.Len()
	}
	if an != bn {
		return false
	}
	for i := 0; i < an; i++ {
		ta, tb := a.Features.Get(i), b.Features.Get(i)
		if !ta.Shape().Equal(tb.Shape()) || !sameBits(ta.Data(), tb.Data()) {
			return false
		}
	}
	return true
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		sampleRow(1),
		{ID: 2},                          // all-nil payloads
		{ID: 3, Structured: []float32{}}, // empty but non-nil
		{ID: 4, Image: []byte{}},         // empty image
		{ID: 5, Features: tensor.NewTensorList()}, // empty list
		{ID: -6, Label: -0.5, Structured: []float32{7}},
		specialRow(7),
	}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatalf("DecodeRows: %v", err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !rowsEqual(&rows[i], &got[i]) {
			t.Errorf("row %d mismatch:\n in: %+v\nout: %+v", i, rows[i], got[i])
		}
	}
}

func TestRowCodecNilVsEmptyPreserved(t *testing.T) {
	rows := []Row{{ID: 1}, {ID: 2, Structured: []float32{}, Image: []byte{}, Features: tensor.NewTensorList()}}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Structured != nil || got[0].Image != nil || got[0].Features != nil {
		t.Error("nil payloads not preserved")
	}
	if got[1].Structured == nil || got[1].Image == nil || got[1].Features == nil {
		t.Error("empty payloads decoded as nil")
	}
}

// specialRow carries the float32 values a lossy or value-based codec would
// change: -0 beside +0, NaNs with distinct payloads, denormals and infinities,
// between zero runs of several lengths.
func specialRow(id int64) Row {
	nan := func(bits uint32) float32 { return math.Float32frombits(0x7fc00000 | bits) }
	vals := []float32{0, float32(math.Copysign(0, -1)), nan(1), nan(0x2a), 0, 0, 0,
		math.Float32frombits(1), math.Float32frombits(0x807fffff), 0,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, 0}
	return Row{ID: id, Label: nan(7), Structured: vals,
		Features: tensor.NewTensorList(tensor.MustFromSlice(append([]float32(nil), vals...), 2, 7))}
}

// TestDecodeRowsCorruption: every proper prefix of a blob is refused as
// corrupt, never decoded into fewer or shorter rows.
func TestDecodeRowsCorruption(t *testing.T) {
	for _, rows := range [][]Row{
		{sampleRow(1), specialRow(2), {ID: 3}},
		{},
	} {
		blob, err := EncodeRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(blob); i++ {
			if _, err := DecodeRows(blob[:i]); !errors.Is(err, ErrCorruptRow) {
				t.Fatalf("blob of %d rows cut to %d of %d bytes: err = %v, want ErrCorruptRow", len(rows), i, len(blob), err)
			}
		}
	}
}

func u32(v uint32) []byte { return byteOrder.AppendUint32(nil, v) }

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// rowBlob assembles a one-row blob by hand: the format word, the count, the
// row header with every field present, then fields (length words and runs).
func rowBlob(fields ...[]byte) []byte {
	b := append([]byte(rowFormat), u32(1)...)
	b = byteOrder.AppendUint64(b, 7)
	b = append(b, u32(0)...) // label
	b = append(b, u32(0)...) // nulls: every field present
	for _, f := range fields {
		b = append(b, f...)
	}
	return b
}

// hostileBlobs are blobs the decoder must refuse with ErrCorruptRow, each
// without allocating what it claims.
func hostileBlobs() map[string][]byte {
	none, one := u32(0), u32(math.Float32bits(1))
	valid, err := EncodeRows([]Row{sampleRow(1)})
	if err != nil {
		panic(err)
	}
	otherVersion := append([]byte(nil), valid...)
	otherVersion[len(rowFormat)-1]++
	return map[string][]byte{
		"2^30 zeros in Structured":    rowBlob(u32(1<<30), uvarints(1<<30, 0), none, none),
		"2^30 zeros in a tensor":      rowBlob(none, none, u32(1), u32(2), u32(1<<15), u32(1<<15), uvarints(1<<30, 0)),
		"(0,0) run":                   rowBlob(u32(2), uvarints(0, 0), uvarints(2, 0), none, none),
		"zeros overrun the field":     rowBlob(u32(2), uvarints(3, 0), none, none),
		"non-zeros overrun the field": rowBlob(u32(2), uvarints(1, 2), one, one, none, none),
		"run overruns the shape":      rowBlob(none, none, u32(1), u32(1), u32(2), uvarints(0, 3), one, one, one),
		"zero tensor dimension":       rowBlob(none, none, u32(1), u32(1), none),
		"non-zeros past the end":      rowBlob(u32(2), uvarints(0, 2), one),
		"run header past the end":     rowBlob(u32(2), []byte{0x80}),
		"image past the end":          rowBlob(none, u32(1<<30), none),
		"row count past the end":      append([]byte(rowFormat), u32(1<<31)...),
		"another format version":      otherVersion,
		"no format word":              {0x00, 0x01, 0x02},
		"trailing byte":               append(append([]byte(nil), valid...), 0),
	}
}

func TestDecodeRowsRefusesHostileBlobs(t *testing.T) {
	for name, blob := range hostileBlobs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRows(blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptRow) {
			t.Errorf("%s: err = %v, want ErrCorruptRow", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: a %d-byte blob allocated %d bytes before it was refused", name, len(blob), grew)
		}
	}
}

// TestEncodeRowsLongZeroRunsDecode: runs of zeros far longer than one run may
// claim stay decodable, since the encoder splits them to stay inside the
// decoder's expansion bound.
func TestEncodeRowsLongZeroRunsDecode(t *testing.T) {
	rows := []Row{{ID: 1, Structured: make([]float32, 1<<20),
		Features: tensor.NewTensorList(tensor.New(64, 128, 128))}}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRows(blob)
	if err != nil {
		t.Fatalf("%d bytes of zeros in a %d-byte blob: %v", 4*(2<<20), len(blob), err)
	}
	if !rowsEqual(&rows[0], &got[0]) {
		t.Error("zero row changed in the round trip")
	}
}

func TestRowMemBytes(t *testing.T) {
	r := Row{ID: 1}
	base := r.MemBytes()
	if base <= 0 {
		t.Fatal("empty row has non-positive footprint")
	}
	r.Structured = make([]float32, 100)
	if got := r.MemBytes(); got != base+400 {
		t.Errorf("structured delta = %d, want 400", got-base)
	}
	r.Features = tensor.NewTensorList(tensor.New(10))
	if r.MemBytes() <= base+400 {
		t.Error("features did not increase footprint")
	}
}

func TestRowClone(t *testing.T) {
	r := sampleRow(9)
	c := r.Clone()
	c.Structured[0] = 99
	c.Image[0] = 99
	c.Features.Get(0).Data()[0] = 99
	if r.Structured[0] == 99 || r.Image[0] == 99 || r.Features.Get(0).Data()[0] == 99 {
		t.Error("Clone shares storage")
	}
}

// Property: the codec round-trips arbitrary structured payloads exactly.
func TestRowCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(id int64, label float32, n uint8) bool {
		r := Row{ID: id, Label: label, Structured: make([]float32, int(n%64))}
		for i := range r.Structured {
			r.Structured[i] = rng.Float32()*200 - 100
		}
		if n%3 == 0 {
			r.Image = make([]byte, int(n))
			rng.Read(r.Image)
		}
		if n%4 == 0 {
			r.Features = tensor.NewTensorList(tensor.New(int(n%7) + 1))
		}
		blob, err := EncodeRows([]Row{r})
		if err != nil {
			return false
		}
		got, err := DecodeRows(blob)
		if err != nil || len(got) != 1 {
			return false
		}
		return rowsEqual(&r, &got[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRowsCompresses(t *testing.T) {
	// Highly redundant rows must compress well below their raw payload —
	// the premise of the serialized persistence format (Section 4.2.3 and
	// Appendix A's compressibility observation).
	rows := make([]Row, 50)
	for i := range rows {
		rows[i] = Row{ID: int64(i), Structured: make([]float32, 1000)} // zeros
	}
	blob, err := EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(50 * 1000 * 4)
	if int64(len(blob)) > raw/5 {
		t.Errorf("compressed %d bytes for %d raw; expected at least 5x compression of zeros", len(blob), raw)
	}
}
