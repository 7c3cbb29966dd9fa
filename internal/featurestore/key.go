package featurestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// EntryKind distinguishes the two physical representations a feature layer
// can be materialized in — the optimizer-level representation choice of
// Anderson et al.'s physical-design argument, scoped to what the Staged
// executor actually consumes.
type EntryKind uint8

// Entry kinds.
const (
	// Feature holds the pooled+flattened feature vectors g_l(f̂_l(I)) used
	// for downstream training.
	Feature EntryKind = iota
	// RawCarry holds the unpooled layer output f̂_l(I) a Staged chain needs
	// to continue partial inference from layer l.
	RawCarry
)

// String implements fmt.Stringer.
func (k EntryKind) String() string {
	if k == RawCarry {
		return "raw"
	}
	return "feature"
}

// Key identifies one materialized feature table. Two runs share an entry iff
// they agree on the CNN architecture (Model), its realized parameters
// (WeightsSum), the layer, and the exact image content the features were
// computed from (DataSum), and run the same GEMM kernel body — a content
// address, so stale or mismatched reuse is impossible by construction.
type Key struct {
	// Model is the roster model name (e.g. "tiny-alexnet").
	Model string
	// WeightsSum is the hex SHA-256 of the model's realized weights (see
	// cnn.WeightsChecksum); it pins the seed/checkpoint.
	WeightsSum string
	// DataSum is the hex SHA-256 of the image-table content (DataChecksum).
	DataSum string
	// LayerIndex is the model layer index whose output is stored.
	LayerIndex int
	// Kind selects the stored representation.
	Kind EntryKind
}

// id derives the content address entries are filed under. Features are a
// function of the inputs and of the GEMM kernel body that computed them (the
// bodies agree to 1e-4, not bit for bit), so the address also binds the body
// serving this process: an assembly build and a pure-Go build sharing one
// directory each compute and store their own entries.
func (k Key) id() string { return k.address(tensor.KernelName()) }

// address is the content address of k's features as computed by the named
// kernel body.
func (k Key) address(kernel string) string {
	h := sha256.New()
	var scratch [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(s)))
		h.Write(scratch[:])
		h.Write([]byte(s))
	}
	writeStr(k.Model)
	writeStr(k.WeightsSum)
	writeStr(k.DataSum)
	binary.LittleEndian.PutUint64(scratch[:], uint64(k.LayerIndex))
	h.Write(scratch[:])
	h.Write([]byte{byte(k.Kind)})
	writeStr(kernel)
	return hex.EncodeToString(h.Sum(nil))
}

// String renders the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s@%.8s layer=%d kind=%s data=%.8s",
		k.Model, k.WeightsSum, k.LayerIndex, k.Kind, k.DataSum)
}

// DataChecksum fingerprints an image table's content: every row's ID and raw
// image payload, in slice order. Rows produced by a deterministic generator
// (or loaded from the same files) hash identically across processes, which is
// what makes cross-run reuse sound.
func DataChecksum(rows []dataflow.Row) string {
	h := sha256.New()
	var scratch [8]byte
	for i := range rows {
		binary.LittleEndian.PutUint64(scratch[:], uint64(rows[i].ID))
		h.Write(scratch[:])
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(rows[i].Image)))
		h.Write(scratch[:])
		h.Write(rows[i].Image)
	}
	return hex.EncodeToString(h.Sum(nil))
}
