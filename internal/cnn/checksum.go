package cnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// This file fingerprints realized CNN weights. The stream it hashes is the
// raw form of the artifact Vista's driver builds once and broadcasts to every
// worker (Section 4.1: "the Driver reads and creates a serialized version of
// the CNN and broadcasts it to the workers"): per-layer tensors in a fixed
// order. Little-endian uint32 words throughout: the layer count, then per
// layer each of W, B, Gamma, Beta, Mean, Var as its length followed by its
// float bits, then the sub-layer count followed by each sub-layer the same way.

// checksumChunk is the scratch buffer the stream is assembled in before each
// hash write: large enough that the hash sees few, long writes.
const checksumChunk = 32 << 10

// WeightsChecksum fingerprints realized weights as the hex SHA-256 of the
// raw checkpoint stream, so the checksum depends only on the weight values —
// the identity a feature store uses to pin cached features to one exact set
// of weights. The stream is hashed as it is produced, through one fixed
// scratch buffer, never held whole.
func WeightsChecksum(w *Weights) string {
	s := checkpointStream{h: sha256.New(), buf: make([]byte, 0, checksumChunk)}
	s.word(uint32(len(w.Layers)))
	for _, lw := range w.Layers {
		s.layer(lw)
	}
	s.flush()
	return hex.EncodeToString(s.h.Sum(nil))
}

// checkpointStream feeds the checkpoint stream to h in buffer-sized writes.
type checkpointStream struct {
	h   hash.Hash
	buf []byte // pending bytes; cap(buf) is a multiple of 4
}

func (s *checkpointStream) flush() {
	s.h.Write(s.buf)
	s.buf = s.buf[:0]
}

func (s *checkpointStream) word(v uint32) {
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
	s.buf = binary.LittleEndian.AppendUint32(s.buf, v)
}

func (s *checkpointStream) floats(vs []float32) {
	s.word(uint32(len(vs)))
	for len(vs) > 0 {
		if len(s.buf) == cap(s.buf) {
			s.flush()
		}
		n := min(len(vs), (cap(s.buf)-len(s.buf))/4)
		out := s.buf[len(s.buf) : len(s.buf)+4*n]
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		s.buf = s.buf[:len(s.buf)+4*n]
		vs = vs[n:]
	}
}

func (s *checkpointStream) layer(w *LayerWeights) {
	for _, slot := range [...][]float32{w.W, w.B, w.Gamma, w.Beta, w.Mean, w.Var} {
		s.floats(slot)
	}
	s.word(uint32(len(w.Sub)))
	for _, sub := range w.Sub {
		s.layer(sub)
	}
}
