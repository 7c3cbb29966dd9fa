package featurestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The on-disk index makes the store durable across process restarts: it
// records every entry's key, payload size, and LRU recency. The codec is a
// fixed little-endian binary layout with a CRC-32 footer; any truncation,
// bit-flip, or foreign file decodes to ErrCorruptIndex — never a panic — so
// Open can detect damage and rebuild cold instead of serving garbage.

// ErrCorruptIndex indicates a malformed or truncated on-disk index.
var ErrCorruptIndex = errors.New("featurestore: corrupt index")

// IndexEntry is one persisted record of the store's index.
type IndexEntry struct {
	Key Key
	// Size is the entry's payload size in bytes (its budget charge).
	Size int64
	// LastUsed is the entry's recency rank, larger = more recently used.
	// Open restores recency from the entries' position in the index (most
	// recently used first), not from this field, so indexes whose LastUsed
	// holds a logical clock instead of a rank load the same way.
	LastUsed int64
}

const (
	indexMagic   = "VFSI"
	indexVersion = 1
	// maxIndexEntries and maxIndexString bound decoding so a corrupt length
	// word cannot drive huge allocations.
	maxIndexEntries = 1 << 20
	maxIndexString  = 1 << 12
)

// EncodeIndex serializes entries into the on-disk index format.
func EncodeIndex(entries []IndexEntry) []byte {
	var buf []byte
	var scratch [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:8]...)
	}
	putStr := func(s string) {
		put32(uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf, indexMagic...)
	put32(indexVersion)
	put32(uint32(len(entries)))
	for _, e := range entries {
		putStr(e.Key.Model)
		putStr(e.Key.WeightsSum)
		putStr(e.Key.DataSum)
		put32(uint32(e.Key.LayerIndex))
		buf = append(buf, byte(e.Key.Kind))
		put64(uint64(e.Size))
		put64(uint64(e.LastUsed))
	}
	put32(crc32.ChecksumIEEE(buf))
	return buf
}

// indexReader decodes index bytes with bounds checking.
type indexReader struct {
	buf []byte
	off int
}

func (r *indexReader) u32() (uint32, error) {
	if len(r.buf)-r.off < 4 {
		return 0, ErrCorruptIndex
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *indexReader) u64() (uint64, error) {
	if len(r.buf)-r.off < 8 {
		return 0, ErrCorruptIndex
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *indexReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxIndexString || len(r.buf)-r.off < int(n) {
		return "", fmt.Errorf("%w: string length %d", ErrCorruptIndex, n)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// DecodeIndex parses an on-disk index blob. Corrupt or truncated input
// returns an error wrapping ErrCorruptIndex; it never panics.
func DecodeIndex(blob []byte) ([]IndexEntry, error) {
	if len(blob) < len(indexMagic)+12 || string(blob[:len(indexMagic)]) != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptIndex)
	}
	body, footer := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptIndex)
	}
	r := &indexReader{buf: body, off: len(indexMagic)}
	version, err := r.u32()
	if err != nil {
		return nil, err
	}
	if version != indexVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptIndex, version)
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	if count > maxIndexEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrCorruptIndex, count)
	}
	entries := make([]IndexEntry, 0, count)
	for i := 0; i < int(count); i++ {
		var e IndexEntry
		if e.Key.Model, err = r.str(); err != nil {
			return nil, err
		}
		if e.Key.WeightsSum, err = r.str(); err != nil {
			return nil, err
		}
		if e.Key.DataSum, err = r.str(); err != nil {
			return nil, err
		}
		layer, err := r.u32()
		if err != nil {
			return nil, err
		}
		e.Key.LayerIndex = int(layer)
		if r.off >= len(r.buf) {
			return nil, ErrCorruptIndex
		}
		kind := r.buf[r.off]
		r.off++
		if kind > uint8(RawCarry) {
			return nil, fmt.Errorf("%w: entry kind %d", ErrCorruptIndex, kind)
		}
		e.Key.Kind = EntryKind(kind)
		size, err := r.u64()
		if err != nil {
			return nil, err
		}
		e.Size = int64(size)
		if e.Size < 0 {
			return nil, fmt.Errorf("%w: negative size", ErrCorruptIndex)
		}
		used, err := r.u64()
		if err != nil {
			return nil, err
		}
		e.LastUsed = int64(used)
		entries = append(entries, e)
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptIndex, len(r.buf)-r.off)
	}
	return entries, nil
}
