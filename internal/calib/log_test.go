package calib

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestMain(m *testing.M) {
	code := m.Run()
	// CI contract: a test that arms a failpoint must disarm it; anything
	// left armed would silently poison unrelated tests.
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// testRecord builds a deterministic record with every sample shape the wire
// format must round-trip: both flags, an empty side, and fractional bytes.
func testRecord(fp string, nano int64) Record {
	return Record{
		At:          time.Unix(0, nano),
		Fingerprint: fp,
		Samples: []Sample{
			{Stage: "storage:peak", Est: 1 << 20, Meas: 1.5 * (1 << 20)},
			{Stage: "storage:spill", Est: 0, Meas: 4096},
			{Stage: "storage:peak", Est: 3 << 20, Meas: 1 << 19, Cached: true},
			{Stage: "storage:spill", Est: 2 << 20, Meas: 1 << 20, Shared: true},
		},
	}
}

// oldLogRecord is one record as written before calibration became
// storage-only, at 1000 ns for fingerprint "fp": time samples ingest (est
// 0.5, meas 0.25), cache:fc7 (cached, meas 0.5) and an unmodeled "x" (meas
// 0.5), then storage:peak (shared, est 1024, meas 2048).
var oldLogRecord = []byte{
	0x56, 0x43, 0x4c, 0x31, 0x7a, 0x00, 0x00, 0x00, 0xe8, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x02, 0x00, 0x66, 0x70, 0x04, 0x00, 0x06, 0x00, 0x69, 0x6e, 0x67, 0x65, 0x73, 0x74, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
	0x09, 0x00, 0x63, 0x61, 0x63, 0x68, 0x65, 0x3a, 0x66, 0x63, 0x37, 0x02, 0x01, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x01, 0x00, 0x78,
	0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0xe0, 0x3f, 0x0c, 0x00, 0x73, 0x74, 0x6f, 0x72, 0x61, 0x67, 0x65, 0x3a, 0x70, 0x65, 0x61, 0x6b,
	0x04, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x90, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0xa0, 0x40, 0xd7, 0x63, 0xba, 0x94,
}

// A log written before calibration became storage-only still opens clean:
// its records keep their storage samples and lose their time samples, so
// replay feeds the aggregates exactly what they were always fed.
func TestLogDropsTimeSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.log")
	if err := os.WriteFile(path, oldLogRecord, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := ReadLog(path)
	if err != nil || dropped != 0 {
		t.Fatalf("ReadLog = %d dropped bytes, %v; want a clean log", dropped, err)
	}
	recordsEqual(t, recs, []Record{{
		At:          time.Unix(0, 1000),
		Fingerprint: "fp",
		Samples:     []Sample{{Stage: "storage:peak", Est: 1024, Meas: 2048, Shared: true}},
	}})
	rep, _, err := ReplayReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 || rep.Samples != 0 || rep.Excluded != 1 {
		t.Errorf("replayed runs/samples/excluded = %d/%d/%d, want 1/0/1", rep.Runs, rep.Samples, rep.Excluded)
	}
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].At.Equal(want[i].At) {
			t.Errorf("record %d At = %v, want %v", i, got[i].At, want[i].At)
		}
		if got[i].Fingerprint != want[i].Fingerprint {
			t.Errorf("record %d fingerprint = %q, want %q", i, got[i].Fingerprint, want[i].Fingerprint)
		}
		if len(got[i].Samples) != len(want[i].Samples) {
			t.Fatalf("record %d has %d samples, want %d", i, len(got[i].Samples), len(want[i].Samples))
		}
		for j, w := range want[i].Samples {
			if got[i].Samples[j] != w {
				t.Errorf("record %d sample %d = %+v, want %+v", i, j, got[i].Samples[j], w)
			}
		}
	}
}

func TestLogRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.log")
	want := []Record{testRecord("a|foods|100|7", 1000), testRecord("b|amazon|200|9", 2000)}

	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, dropped, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("clean log reports %d dropped bytes", dropped)
	}
	recordsEqual(t, got, want)

	// Reopening replays the same records and accepts further appends.
	l, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, l.Records(), want)
	extra := testRecord("c|foods|50|1", 3000)
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, _, _ = ReadLog(path)
	recordsEqual(t, got, append(want, extra))
}

func TestLogTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.log")
	rec := testRecord("a|foods|100|7", 1000)
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: half a record's worth of garbage lands.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("VCL1garbage-that-is-not-a-record"))
	f.Close()

	if _, dropped, _ := ReadLog(path); dropped == 0 {
		t.Fatal("ReadLog did not notice the torn tail")
	}
	l, err = OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, l.Records(), []Record{rec})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(encodeRecord(rec))); st.Size() != want {
		t.Fatalf("recovered log is %d bytes, want the clean prefix %d", st.Size(), want)
	}
	// And the recovered log keeps working.
	next := testRecord("b|foods|100|8", 2000)
	if err := l.Append(next); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, dropped, _ := ReadLog(path)
	if dropped != 0 {
		t.Fatalf("recovered log reports %d dropped bytes", dropped)
	}
	recordsEqual(t, got, []Record{rec, next})
}

func TestLogCorruptInteriorEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calib.log")
	a, b := testRecord("a|foods|1|1", 1000), testRecord("b|foods|2|2", 2000)
	l, _ := OpenLog(path)
	l.Append(a)
	l.Append(b)
	l.Close()

	// Flip one payload byte of the FIRST record: its checksum fails, so the
	// readable prefix is empty — decode never resynchronizes past damage.
	data, _ := os.ReadFile(path)
	data[recordHeaderLen+3] ^= 0xff
	os.WriteFile(path, data, 0o644)

	recs, dropped, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || dropped != len(data) {
		t.Fatalf("got %d records, %d dropped bytes; want 0 records, all %d bytes dropped",
			len(recs), dropped, len(data))
	}
}

func TestLogAppendFaultLeavesRecoverableTail(t *testing.T) {
	defer faultinject.DisarmAll()
	path := filepath.Join(t.TempDir(), "calib.log")
	a := testRecord("a|foods|1|1", 1000)
	l, _ := OpenLog(path)
	if err := l.Append(a); err != nil {
		t.Fatal(err)
	}

	// A torn write the caller is told about: 10 bytes land, then the error.
	faultinject.Arm(FaultLogAppend, faultinject.FailAfterBytes(10))
	if err := l.Append(testRecord("b|foods|2|2", 2000)); err == nil {
		t.Fatal("append under a torn-write fault reported success")
	}
	faultinject.Disarm(FaultLogAppend)
	l.Close()

	// The torn tail disappears on reopen; record A survives.
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recordsEqual(t, l.Records(), []Record{a})
}

func TestLogSilentTearRecovered(t *testing.T) {
	defer faultinject.DisarmAll()
	path := filepath.Join(t.TempDir(), "calib.log")
	a := testRecord("a|foods|1|1", 1000)
	l, _ := OpenLog(path)
	if err := l.Append(a); err != nil {
		t.Fatal(err)
	}

	// A silent tear: the append reports success but only 10 bytes land —
	// the no-fsync crash window. The next open truncates it away.
	faultinject.Arm(FaultLogAppend, faultinject.SilentTruncate(10))
	if err := l.Append(testRecord("b|foods|2|2", 2000)); err != nil {
		t.Fatalf("silent tear surfaced an error: %v", err)
	}
	faultinject.Disarm(FaultLogAppend)
	l.Close()

	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, l.Records(), []Record{a})
	c := testRecord("c|foods|3|3", 3000)
	if err := l.Append(c); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, _, _ := ReadLog(path)
	recordsEqual(t, got, []Record{a, c})
}
