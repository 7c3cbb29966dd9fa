package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestTensorCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := New(3, 8, 8)
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	out, err := Decode(Encode(in))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !out.Shape().Equal(in.Shape()) {
		t.Fatalf("shape = %v, want %v", out.Shape(), in.Shape())
	}
	for i := range in.Data() {
		if in.Data()[i] != out.Data()[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

// TestTensorCodecExactSize: a blob is its header (format word, rank, dims)
// and the float32 payload, and nothing else.
func TestTensorCodecExactSize(t *testing.T) {
	for _, shape := range []Shape{{1}, {2, 3}, {3, 64, 64}, {2, 1, 5, 7}} {
		blob := Encode(New(shape...))
		if want := 8 + 4*len(shape) + 4*shape.NumElements(); len(blob) != want || EncodedBytes(shape) != want {
			t.Errorf("%v: %d bytes (EncodedBytes %d), want %d", shape, len(blob), EncodedBytes(shape), want)
		}
	}
}

// TestTensorCodecBitExact: every float32 bit pattern survives, -0, NaN
// payloads, denormals and infinities included, and re-encoding a decoded blob
// gives back the same bytes.
func TestTensorCodecBitExact(t *testing.T) {
	bits := []uint32{
		0x80000000, // -0
		0x7fc00001, // quiet NaN with a payload
		0x7f800001, // signalling NaN
		0xffc12345, // negative NaN
		0x00000001, // smallest denormal
		0x807fffff, // largest negative denormal
		0x7f800000, // +Inf
		0xff800000, // -Inf
		0x00000000,
		math.Float32bits(1.5),
	}
	in := New(2, len(bits)/2)
	for i, b := range bits {
		in.Data()[i] = math.Float32frombits(b)
	}
	blob := Encode(in)
	out, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if got := math.Float32bits(v); got != bits[i] {
			t.Errorf("element %d: bits %#08x, want %#08x", i, got, bits[i])
		}
	}
	if re := Encode(out); !bytes.Equal(re, blob) {
		t.Error("Encode(Decode(b)) differs from b")
	}
}

// imageBlob assembles a blob by hand: the format word, the rank, the dims,
// then payload bytes.
func imageBlob(rank uint32, dims []uint32, payload int) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(imageFormat), rank)
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return append(b, make([]byte, payload)...)
}

// hostileBlobs are blobs Decode must refuse with ErrCorrupt, each without
// allocating what it claims.
func hostileBlobs() map[string][]byte {
	valid := Encode(New(2, 3))
	otherVersion := append([]byte(nil), valid...)
	otherVersion[len(imageFormat)-1]++
	return map[string][]byte{
		"empty":                        {},
		"short header":                 []byte(imageFormat)[:3],
		"no rank":                      []byte(imageFormat),
		"rank 9":                       imageBlob(9, []uint32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 4),
		"dims past the end":            imageBlob(3, []uint32{1, 1}, 0),
		"zero dim":                     imageBlob(1, []uint32{0}, 0),
		"zero leading dim":             imageBlob(2, []uint32{0, 3}, 0),
		"zero trailing dim":            imageBlob(2, []uint32{3, 0}, 0),
		"dim product wraps to 1":       imageBlob(3, []uint32{2996173443, 1119412321, 11}, 4), // 2·2^64 + 1
		"dims exceed the payload":      imageBlob(2, []uint32{1 << 15, 1 << 15}, 64),
		"short payload":                imageBlob(2, []uint32{2, 3}, 4*6-1),
		"trailing byte":                append(append([]byte(nil), valid...), 0),
		"another format version":       otherVersion,
		"deflate-era image":            []byte(deflateEraImage),
		"no format word":               {0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0},
		"rank 0 without its one float": imageBlob(0, nil, 0),
	}
}

func TestTensorDecodeErrors(t *testing.T) {
	for name, blob := range hostileBlobs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: a %d-byte blob allocated %d bytes before it was refused", name, len(blob), grew)
		}
	}
	valid := Encode(New(2, 2))
	for n := range valid {
		if _, err := Decode(valid[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("blob cut to %d of %d bytes: err = %v, want ErrCorrupt", n, len(valid), err)
		}
	}
}

// deflateEraImage is the 1×2×3 tensor (0, 0.25, 0.5, 0.75, 1, 1.25) as
// builds before the format word encoded it: rank, dims and payload,
// deflate-compressed.
const deflateEraImage = "\x04\xc0\x01\x01\x00\x10\x10\x03\xc0\xe3{\x99h\x8b\"\xaa\x1b,l\f\x80\x1e\x84\x1b\x1a^~\x00\x00\x00\xff\xff"

// TestDecodeRefusesDeflateEraImage: an image saved by an earlier build is
// refused as corrupt, never misread as a tensor of this format.
func TestDecodeRefusesDeflateEraImage(t *testing.T) {
	if got, err := Decode([]byte(deflateEraImage)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of a deflate-era image = %v, %v; want ErrCorrupt", got, err)
	}
}

// TestDecodeReusesItsState decodes different tensors back to back and
// concurrently: the pooled slabs decoded tensors draw on must not carry one
// call's values into the next.
func TestDecodeReusesItsState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ins []*Tensor
	var blobs [][]byte
	for _, shape := range [][]int{{3, 16, 16}, {5}, {2, 40, 3}, {1, 1, 1}} {
		in := randTensor(rng, shape...)
		ins, blobs = append(ins, in), append(blobs, Encode(in))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j := (g + i) % len(ins)
				out, err := Decode(blobs[j])
				if err != nil {
					t.Errorf("decode %d: %v", j, err)
					return
				}
				if !out.Shape().Equal(ins[j].Shape()) || maxAbsDiff(out, ins[j]) != 0 {
					t.Errorf("decode %d returned another tensor's contents", j)
					return
				}
				Recycle(out)
			}
		}(g)
	}
	wg.Wait()
}

// Property: Encode/Decode round-trips arbitrary small tensors exactly.
func TestTensorCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(d1, d2 uint8) bool {
		a, b := int(d1%8)+1, int(d2%8)+1
		in := New(a, b)
		for i := range in.Data() {
			in.Data()[i] = rng.Float32()*100 - 50
		}
		out, err := Decode(Encode(in))
		if err != nil || !out.Shape().Equal(in.Shape()) {
			return false
		}
		for i := range in.Data() {
			if in.Data()[i] != out.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
