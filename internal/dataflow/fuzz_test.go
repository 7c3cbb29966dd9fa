package dataflow

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecodeRows hardens the Tungsten-style row codec against malformed
// blobs: decoding must never panic, and every successful decode must
// re-encode to a blob that decodes to the same rows, bit for bit. The seeds
// are well-formed blobs and the hostile ones the decoder must refuse.
func FuzzDecodeRows(f *testing.F) {
	seedRows := [][]Row{
		{{ID: 1, Label: 1, Structured: []float32{1, 2}, Image: []byte{3}}},
		{{ID: 2, Features: tensor.NewTensorList(tensor.New(2, 2))}},
		{},
		{specialRow(3), sampleRow(4)},
	}
	for _, rows := range seedRows {
		blob, err := EncodeRows(rows)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	hostile := hostileBlobs()
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		rows, err := DecodeRows(blob)
		if err != nil {
			return // malformed input is fine, panics are not
		}
		re, err := EncodeRows(rows)
		if err != nil {
			t.Fatalf("re-encode of decoded rows failed: %v", err)
		}
		again, err := DecodeRows(re)
		if err != nil {
			t.Fatalf("decode of re-encode failed: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("row count changed: %d vs %d", len(again), len(rows))
		}
		for i := range rows {
			if !rowsEqual(&rows[i], &again[i]) {
				t.Fatalf("row %d changed in a re-encode round trip", i)
			}
		}
		if re2, _ := EncodeRows(again); !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
