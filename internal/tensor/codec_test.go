package tensor

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
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
	blob, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(blob)
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

func TestTensorCodecCompressesSmoothData(t *testing.T) {
	// Smooth images (like natural photos) compress well below raw payload —
	// the raw-image-vs-feature-tensor size asymmetry of Section 1.1.
	in := New(3, 32, 32)
	for i := range in.Data() {
		in.Data()[i] = 0.5
	}
	blob, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(blob)) > in.SizeBytes()/4 {
		t.Errorf("constant image compressed to %d of %d raw bytes", len(blob), in.SizeBytes())
	}
}

func TestTensorDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("decoded garbage")
	}
	blob, err := Encode(New(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob[:len(blob)-1]); err == nil {
		t.Error("decoded truncated blob")
	}
	// A header claiming far more data than the blob could inflate to must be
	// refused before anything is sized from it; so must data past the end of
	// what the header describes.
	for name, raw := range map[string][]byte{
		"oversized dims": {2, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f},
		"zero dim":       {1, 0, 0, 0, 0, 0, 0, 0},
		"trailing bytes": {1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9},
	} {
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, flate.BestSpeed)
		w.Write(raw)
		w.Close()
		if _, err := Decode(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeReusesItsState decodes different tensors back to back and
// concurrently: the pooled decompressor and payload buffer must not carry
// one call's bytes into the next.
func TestDecodeReusesItsState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var ins []*Tensor
	var blobs [][]byte
	for _, shape := range [][]int{{3, 16, 16}, {5}, {2, 40, 3}, {1, 1, 1}} {
		in := randTensor(rng, shape...)
		blob, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		ins, blobs = append(ins, in), append(blobs, blob)
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
		blob, err := Encode(in)
		if err != nil {
			return false
		}
		out, err := Decode(blob)
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
