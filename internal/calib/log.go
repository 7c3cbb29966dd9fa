package calib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/faultinject"
)

// Failpoint sites (see internal/faultinject). The recovery base site expands
// into ".create", ".write" (a byte site), and ".rename" sub-sites, mirroring
// the featurestore's atomic-write sites.
const (
	// FaultLogAppend is the byte site every record append moves through; a
	// torn verdict leaves a truncated tail the next Open must recover from.
	FaultLogAppend = "calib/log.append"
	// FaultLogAppended sits just after a record append returns — the
	// kill-here point crash-consistency tests arm to die between a
	// (possibly torn) append and any later one.
	FaultLogAppended = "calib/log.appended"
	// FaultLogRecover is the base site for the clean-prefix rewrite Open
	// performs when it finds a torn tail.
	FaultLogRecover = "calib/log"
)

// Record is one run's worth of calibration samples, stamped with the
// recorder clock's time so decay replays identically offline.
type Record struct {
	// At is the record timestamp (persisted at nanosecond precision).
	At time.Time
	// Fingerprint identifies the workload ("model|dataset|rows|seed").
	Fingerprint string
	// Samples are the run's calibration pairs.
	Samples []Sample
}

// On-disk record layout (little-endian):
//
//	magic "VCL1" | u32 payloadLen | payload | u32 crc32(payload)
//
// payload:
//
//	i64 unixNano
//	u16 fingerprintLen | fingerprint
//	u16 nSamples
//	per sample: u16 stageLen | stage | u8 kind | u8 flags | f64 est | f64 meas
//
// kind is storageCode; flags carries the Cached and Shared bits.
//
// Every length is bounds-checked on decode; a record that does not parse
// cleanly ends the readable prefix (decode never panics, never guesses).
const (
	logMagic = "VCL1"
	// maxPayloadBytes bounds one record (~4096 samples of ~80 bytes).
	maxPayloadBytes = 1 << 20
	maxStringLen    = 1 << 10
	maxSamples      = 4096

	recordHeaderLen = 8 // magic + payload length
	recordFooterLen = 4 // crc32
)

// storageCode is the kind byte of a storage sample, the only kind written.
// Logs from before calibration became storage-only also hold time-stage
// samples (codes 0–3, and 255 for an unmodeled label); decode drops them, so
// such a log replays to the same storage aggregates it always fed.
const storageCode = 4

const (
	flagCached = 1 << 0
	flagShared = 1 << 1
)

// encodeRecord renders rec in the on-disk layout.
func encodeRecord(rec Record) []byte {
	var payload []byte
	payload = binary.LittleEndian.AppendUint64(payload, uint64(rec.At.UnixNano()))
	payload = appendString(payload, rec.Fingerprint)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(rec.Samples)))
	for _, s := range rec.Samples {
		payload = appendString(payload, s.Stage)
		payload = append(payload, storageCode)
		var flags byte
		if s.Cached {
			flags |= flagCached
		}
		if s.Shared {
			flags |= flagShared
		}
		payload = append(payload, flags)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(s.Est))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(s.Meas))
	}
	out := make([]byte, 0, recordHeaderLen+len(payload)+recordFooterLen)
	out = append(out, logMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

func appendString(b []byte, s string) []byte {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// ErrCorruptLog describes an unreadable log tail; callers that recover (Open)
// truncate to the clean prefix instead of surfacing it.
var ErrCorruptLog = errors.New("calib: corrupt log record")

// decodeRecords parses every complete, checksummed record from data and
// returns them together with the byte length of the clean prefix. A torn or
// corrupt tail is not an error here — the caller decides whether to truncate
// (Open) or just report it (ReadLog).
func decodeRecords(data []byte) (recs []Record, clean int) {
	off := 0
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off
}

// decodeRecord parses one record from the front of data, returning its
// wire length.
func decodeRecord(data []byte) (Record, int, error) {
	var rec Record
	if len(data) < recordHeaderLen {
		return rec, 0, fmt.Errorf("%w: short header", ErrCorruptLog)
	}
	if string(data[:4]) != logMagic {
		return rec, 0, fmt.Errorf("%w: bad magic", ErrCorruptLog)
	}
	plen := int(binary.LittleEndian.Uint32(data[4:8]))
	if plen > maxPayloadBytes {
		return rec, 0, fmt.Errorf("%w: oversized payload (%d bytes)", ErrCorruptLog, plen)
	}
	total := recordHeaderLen + plen + recordFooterLen
	if len(data) < total {
		return rec, 0, fmt.Errorf("%w: truncated record", ErrCorruptLog)
	}
	payload := data[recordHeaderLen : recordHeaderLen+plen]
	sum := binary.LittleEndian.Uint32(data[recordHeaderLen+plen : total])
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptLog)
	}
	r := payloadReader{b: payload}
	rec.At = time.Unix(0, int64(r.u64()))
	rec.Fingerprint = r.str()
	n := int(r.u16())
	if n > maxSamples {
		return rec, 0, fmt.Errorf("%w: %d samples", ErrCorruptLog, n)
	}
	for i := 0; i < n && !r.failed; i++ {
		var s Sample
		s.Stage = r.str()
		code := r.u8()
		flags := r.u8()
		s.Cached = flags&flagCached != 0
		s.Shared = flags&flagShared != 0
		s.Est = math.Float64frombits(r.u64())
		s.Meas = math.Float64frombits(r.u64())
		if code == storageCode {
			rec.Samples = append(rec.Samples, s)
		}
	}
	if r.failed || r.off != len(payload) {
		return rec, 0, fmt.Errorf("%w: malformed payload", ErrCorruptLog)
	}
	return rec, total, nil
}

// payloadReader is a bounds-checked cursor over one record payload: any
// overrun latches failed instead of panicking.
type payloadReader struct {
	b      []byte
	off    int
	failed bool
}

func (r *payloadReader) take(n int) []byte {
	if r.failed || r.off+n > len(r.b) || n < 0 {
		r.failed = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *payloadReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *payloadReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *payloadReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *payloadReader) str() string {
	n := int(r.u16())
	if n > maxStringLen {
		r.failed = true
		return ""
	}
	return string(r.take(n))
}

// Log is the append-only on-disk calibration log. Opening recovers from a
// torn tail (a crash mid-append) by atomically rewriting the clean prefix;
// appends are single ordered writes, so the only possible damage from a
// crash is a torn final record, never a corrupt interior.
type Log struct {
	f       *os.File
	records []Record
}

// OpenLog opens (or creates) the log at path, recovering the clean prefix if
// the previous process died mid-append. The records that survived are
// available via Records for replay into an aggregator.
func OpenLog(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("calib: open log: %w", err)
	}
	recs, clean := decodeRecords(data)
	if clean < len(data) {
		// Torn tail: atomically replace the file with its clean prefix so
		// the damage cannot compound across restarts. Write-then-rename,
		// like the featurestore's entry writes.
		if err := durable.WriteFileAtomic(FaultLogRecover, path, data[:clean]); err != nil {
			return nil, fmt.Errorf("calib: recover log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("calib: open log: %w", err)
	}
	return &Log{f: f, records: recs}, nil
}

// Records returns the records recovered at open time (not those appended
// since).
func (l *Log) Records() []Record { return l.records }

// Append writes one record. A failed append may leave a torn tail; the next
// OpenLog truncates it away, so the log never corrupts, it only ever loses
// its final record.
func (l *Log) Append(rec Record) error {
	blob := encodeRecord(rec)
	v := faultinject.HitBytes(FaultLogAppend, int64(len(blob)))
	if v.Err != nil {
		if v.Allowed > 0 {
			l.f.Write(blob[:v.Allowed])
		}
		return v.Err
	}
	if v.SilentTear {
		blob = blob[:v.Allowed]
	}
	if _, err := l.f.Write(blob); err != nil {
		return fmt.Errorf("calib: append: %w", err)
	}
	if err := faultinject.Hit(FaultLogAppended); err != nil {
		return err
	}
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error { return l.f.Close() }

// ReadLog parses every clean record from path without opening it for
// writing; droppedBytes is the length of any unreadable tail (0 for a clean
// log). Offline replay (vista -calib report) uses it so the report can note
// a torn tail instead of silently ignoring it.
func ReadLog(path string) (recs []Record, droppedBytes int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("calib: read log: %w", err)
	}
	recs, clean := decodeRecords(data)
	return recs, len(data) - clean, nil
}
