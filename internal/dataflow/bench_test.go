package dataflow

import (
	"testing"

	"repro/internal/memory"
)

func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := NewEngine(Config{
		Nodes: 2, CoresPerNode: 2, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			DLExecution: memory.MB(64), User: memory.GB(1),
			Core: memory.GB(1), Storage: memory.GB(2),
		},
		SpillDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

func BenchmarkRowCodec(b *testing.B) {
	rows := makeRows(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := EncodeRows(rows)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRows(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuffleJoin(b *testing.B) {
	e := benchEngine(b)
	left, err := e.CreateTable("l", makeRows(2000, 20), 8)
	if err != nil {
		b.Fatal(err)
	}
	rightRows := makeRows(2000, 0)
	for i := range rightRows {
		rightRows[i].Image = []byte{1, 2, 3}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		right, err := e.CreateTable("r", rightRows, 8) // Join consumes it
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out, err := e.Join("j", left, right, ShuffleJoin)
		if err != nil {
			b.Fatal(err)
		}
		out.Drop()
	}
}

func BenchmarkBroadcastJoin(b *testing.B) {
	e := benchEngine(b)
	left, err := e.CreateTable("l", makeRows(200, 20), 8)
	if err != nil {
		b.Fatal(err)
	}
	rightRows := makeRows(2000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		right, err := e.CreateTable("r", rightRows, 8) // Join consumes it
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		out, err := e.Join("j", left, right, BroadcastJoin)
		if err != nil {
			b.Fatal(err)
		}
		out.Drop()
	}
}

func BenchmarkMapPartitions(b *testing.B) {
	e := benchEngine(b)
	t, err := e.CreateTable("t", makeRows(5000, 50), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.MapPartitions("m", t, func(_ *TaskContext, in []Row) ([]Row, error) {
			return in, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		out.Drop()
	}
}

func BenchmarkSpillRoundTrip(b *testing.B) {
	// Storage pressure forces spill + unspill on every pass.
	e, err := NewEngine(Config{
		Nodes: 1, CoresPerNode: 2, Kind: memory.SparkLike,
		Apportion: memory.Apportionment{
			User: memory.GB(1), Core: memory.GB(1), Storage: memory.MB(0.5),
		},
		SpillDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	t, err := e.CreateTable("t", makeRows(2000, 100), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Collect(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.Counters().Snapshot().BytesSpilled)/float64(b.N), "spill-bytes/op")
}
