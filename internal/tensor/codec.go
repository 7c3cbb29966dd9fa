package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// ErrCorrupt indicates a malformed encoded tensor.
	ErrCorrupt = errors.New("tensor: corrupt encoding")
	// errFormat is the ErrCorrupt of a blob without imageFormat's word.
	errFormat = fmt.Errorf("%w: not a raw float32 image (format word %q)", ErrCorrupt, imageFormat)
)

// The image format is the tensor's bytes as they are, behind a short header:
//
//	blob = "VTI" version | rank u32 | dim u32 × rank | float32 bits × ∏dim
//
// all little-endian, so a blob is exactly 8 + 4·rank + 4·∏dim bytes. Nothing
// is compressed: the generated images are float32 noise that deflate shrank
// only to 0.88×, and inflating a 64×64×3 image took about 25 times as long as
// this format's one copy.
const (
	// imageFormat opens every blob: a magic and the format version. A blob of
	// any other version, such as the deflate-compressed images earlier builds
	// wrote, is refused as corrupt, never misread.
	imageFormat = "VTI\x01"
	// maxRank bounds the rank a blob may claim.
	maxRank = 8
)

// EncodedBytes is the length of Encode's blob for a tensor of shape s.
func EncodedBytes(s Shape) int { return len(imageFormat) + 4 + 4*len(s) + 4*s.NumElements() }

// Encode serializes a tensor of rank at most 8 into the image format: the
// "raw image" of this reproduction, the payload every image row carries.
func Encode(t *Tensor) []byte {
	shape, data := t.Shape(), t.Data()
	dst := make([]byte, 0, EncodedBytes(shape))
	dst = append(dst, imageFormat...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(shape)))
	for _, d := range shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// Decode reverses Encode in one pass from the blob into a tensor whose
// storage comes from the slab pool, so the caller may Recycle it once it is
// consumed. A blob of another format, a rank above 8, a zero dim, dims the
// payload cannot hold (checked before anything is allocated), a short payload
// or trailing bytes are ErrCorrupt.
func Decode(blob []byte) (*Tensor, error) {
	shape, payload, err := parseBlob(blob)
	if err != nil {
		return nil, err
	}
	t := newUninit(shape...)
	decodeFloats(t.data, payload)
	return t, nil
}

// DecodeItem decodes the blob straight into item i of batch b, the blob's
// shape being the batch's item shape; it fails as Decode does, and with
// ErrShape on any other shape.
func DecodeItem(blob []byte, b *Tensor, i int) error {
	shape, payload, err := parseBlob(blob)
	if err != nil {
		return err
	}
	if item := ItemShape(b.shape); !shape.Equal(item) {
		return fmt.Errorf("%w: image %v for a batch of %v", ErrShape, shape, item)
	}
	off, run, stride, runs := itemRuns(b.shape, i)
	for r := 0; r < runs; r++ {
		decodeFloats(b.data[off+r*stride:][:run], payload[4*r*run:])
	}
	return nil
}

// parseBlob checks the blob's header against its length and returns its
// shape and float32 payload.
func parseBlob(blob []byte) (Shape, []byte, error) {
	head := len(imageFormat) + 4
	if len(blob) < len(imageFormat) || string(blob[:len(imageFormat)]) != imageFormat {
		return nil, nil, errFormat
	}
	if len(blob) < head {
		return nil, nil, ErrCorrupt
	}
	// The rank is bounded as read, before a 32-bit int could turn it negative.
	rank := binary.LittleEndian.Uint32(blob[len(imageFormat):])
	if rank > maxRank || len(blob) < head+4*int(rank) {
		return nil, nil, ErrCorrupt
	}
	payload := blob[head+4*int(rank):]
	shape := make(Shape, rank)
	elems, limit := 1, len(payload)/4
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(blob[head+4*i:]))
		if shape[i] <= 0 || shape[i] > limit/elems {
			return nil, nil, ErrCorrupt
		}
		elems *= shape[i]
	}
	if len(payload) != 4*elems {
		return nil, nil, ErrCorrupt
	}
	return shape, payload, nil
}

// decodeFloats fills dst from the little-endian float32 words of src.
func decodeFloats(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src))
		src = src[4:]
	}
}
