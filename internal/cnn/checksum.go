package cnn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// This file fingerprints realized CNN weights. The stream it hashes is the
// raw form of the artifact Vista's driver builds once and broadcasts to every
// worker (Section 4.1: "the Driver reads and creates a serialized version of
// the CNN and broadcasts it to the workers"): per-layer tensors in a fixed
// order.

// weightSlots orders a LayerWeights' tensor fields for serialization.
func weightSlots(w *LayerWeights) [][]float32 {
	return [][]float32{w.W, w.B, w.Gamma, w.Beta, w.Mean, w.Var}
}

func encodeLayer(buf *bytes.Buffer, w *LayerWeights) {
	var scratch [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		buf.Write(scratch[:])
	}
	for _, slot := range weightSlots(w) {
		put(uint32(len(slot)))
		for _, v := range slot {
			put(math.Float32bits(v))
		}
	}
	put(uint32(len(w.Sub)))
	for _, sub := range w.Sub {
		encodeLayer(buf, sub)
	}
}

// encodeWeights produces the raw checkpoint stream.
func encodeWeights(w *Weights) []byte {
	var raw bytes.Buffer
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(w.Layers)))
	raw.Write(scratch[:])
	for _, lw := range w.Layers {
		encodeLayer(&raw, lw)
	}
	return raw.Bytes()
}

// WeightsChecksum fingerprints realized weights as the hex SHA-256 of the
// raw checkpoint stream, so the checksum depends only on the weight values —
// the identity a feature store uses to pin cached features to one exact set
// of weights.
func WeightsChecksum(w *Weights) string {
	sum := sha256.Sum256(encodeWeights(w))
	return hex.EncodeToString(sum[:])
}
