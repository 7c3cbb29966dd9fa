package cnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// tinyRoster is every roster model small enough to realize.
var tinyRoster = []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50", "tiny-densenet"}

// pinnedSums are the weights checksums of the tiny roster at seed 1, recorded
// from the buffered encoder the streamed one replaced. Every feature-store
// entry ever written is addressed by these; a change that moves one orphans
// them all.
var pinnedSums = map[string]string{
	"tiny-alexnet":  "dbd61acb6245c284d69cd8cfcef99c154e78e0ba76e7db295142428efd2243fd",
	"tiny-vgg16":    "e086bda6411a1200c0cc2400b80b7681b140cfd5cdd413bf299bb0fcdf1bbc15",
	"tiny-resnet50": "4d2d9df390e5f115aae8f87819bb3453cd4d2e109cdbd132052297541a234a2f",
	"tiny-densenet": "05aecb8e78692c438cb4c154980e060cc9c03304d75014a169aac3a945a15b2b",
}

// encodeWeights is the checkpoint stream built whole, one 4-byte write at a
// time: the reference WeightsChecksum's streamed hashing must match.
func encodeWeights(w *Weights) []byte {
	var raw bytes.Buffer
	put := func(v uint32) {
		var scratch [4]byte
		binary.LittleEndian.PutUint32(scratch[:], v)
		raw.Write(scratch[:])
	}
	var layer func(w *LayerWeights)
	layer = func(w *LayerWeights) {
		for _, slot := range [][]float32{w.W, w.B, w.Gamma, w.Beta, w.Mean, w.Var} {
			put(uint32(len(slot)))
			for _, v := range slot {
				put(math.Float32bits(v))
			}
		}
		put(uint32(len(w.Sub)))
		for _, sub := range w.Sub {
			layer(sub)
		}
	}
	put(uint32(len(w.Layers)))
	for _, lw := range w.Layers {
		layer(lw)
	}
	return raw.Bytes()
}

func realizeTiny(t *testing.T, name string, seed int64) *Weights {
	t.Helper()
	m, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.RealizeWeights(seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWeightsChecksum pins the weights half of every feature-store address:
// equal seeds give equal checksums, and any changed value — another seed, or
// one weight nudged — gives a different one. The streamed hash is the SHA-256
// of the whole checkpoint stream, and the tiny roster's seed-1 sums do not
// move.
func TestWeightsChecksum(t *testing.T) {
	for _, name := range tinyRoster {
		w := realizeTiny(t, name, 9)
		sum := WeightsChecksum(w)
		if len(sum) != 64 || WeightsChecksum(realizeTiny(t, name, 9)) != sum {
			t.Fatalf("%s: checksum %q is not a stable SHA-256 of the weights", name, sum)
		}
		if WeightsChecksum(realizeTiny(t, name, 10)) == sum {
			t.Errorf("%s: seeds 9 and 10 share a checksum", name)
		}
		last := w.Layers[len(w.Layers)-1]
		last.W[0]++
		if WeightsChecksum(w) == sum {
			t.Errorf("%s: checksum ignores a changed weight", name)
		}

		if got := WeightsChecksum(realizeTiny(t, name, 1)); got != pinnedSums[name] {
			t.Errorf("%s seed 1: checksum %s, pinned %s", name, got, pinnedSums[name])
		}
		for seed := int64(1); seed <= 3; seed++ {
			w := realizeTiny(t, name, seed)
			whole := sha256.Sum256(encodeWeights(w))
			if got, want := WeightsChecksum(w), hex.EncodeToString(whole[:]); got != want {
				t.Errorf("%s seed %d: streamed checksum %s, whole-stream SHA-256 %s", name, seed, got, want)
			}
		}
	}
}
