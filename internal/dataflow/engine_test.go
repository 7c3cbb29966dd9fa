package dataflow

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/memory"
	"repro/internal/tensor"
)

// testConfig returns a roomy 2-node Spark-like config for functional tests.
func testConfig() Config {
	return Config{
		Nodes:        2,
		CoresPerNode: 2,
		Kind:         memory.SparkLike,
		Apportion: memory.Apportionment{
			OSReserved:  memory.MB(64),
			DLExecution: memory.MB(256),
			User:        memory.MB(256),
			Core:        memory.MB(256),
			Storage:     memory.MB(256),
		},
		DriverMemory: memory.MB(256),
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.SpillDir == "" {
		cfg.SpillDir = t.TempDir()
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func makeRows(n, structDim int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		s := make([]float32, structDim)
		for j := range s {
			s[j] = float32(i*structDim + j)
		}
		rows[i] = Row{ID: int64(i), Label: float32(i % 2), Structured: s}
	}
	return rows
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{Nodes: 0, CoresPerNode: 1}); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := NewEngine(Config{Nodes: 1, CoresPerNode: 0}); err == nil {
		t.Error("accepted zero cores")
	}
}

func TestCreateTableAndCollect(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(100, 4), 8)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if tb.NumPartitions() != 8 {
		t.Errorf("np = %d, want 8", tb.NumPartitions())
	}
	n, err := tb.NumRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("rows = %d, want 100", n)
	}
	got, err := e.Collect(tb)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d rows", len(got))
	}
	for i := range got {
		if got[i].ID != int64(i) {
			t.Fatalf("collect not sorted: got[%d].ID = %d", i, got[i].ID)
		}
	}
	if e.Counters().Snapshot().BytesRead <= 0 {
		t.Error("BytesRead not counted")
	}
}

func TestCreateTableInvalidNP(t *testing.T) {
	e := newTestEngine(t, testConfig())
	if _, err := e.CreateTable("t", makeRows(10, 1), 0); err == nil {
		t.Error("accepted np = 0")
	}
}

func TestMapPartitionsTransforms(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(50, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.MapPartitions("t2", tb, func(_ *TaskContext, in []Row) ([]Row, error) {
		res := make([]Row, len(in))
		for i, r := range in {
			c := r.Clone()
			c.Label = 7
			res[i] = c
		}
		return res, nil
	})
	if err != nil {
		t.Fatalf("MapPartitions: %v", err)
	}
	rows, err := e.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Label != 7 {
			t.Fatalf("row %d label = %v, want 7", r.ID, r.Label)
		}
	}
	if e.Counters().Snapshot().TasksRun < 4 {
		t.Error("expected at least 4 tasks")
	}
}

func TestMapAndFilter(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(40, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := e.MapPartitions("d", tb, func(_ *TaskContext, in []Row) ([]Row, error) {
		out := make([]Row, len(in))
		for i := range in {
			out[i] = in[i].Clone()
			out[i].Structured[0] *= 2
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	even, err := e.Filter("e", doubled, func(r *Row) bool { return r.ID%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.Collect(even)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("filtered to %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if r.Structured[0] != float32(r.ID*2) {
			t.Fatalf("row %d structured = %v", r.ID, r.Structured[0])
		}
	}
}

func TestMapPartitionsErrorPropagates(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(10, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.MapPartitions("bad", tb, func(_ *TaskContext, in []Row) ([]Row, error) {
		return nil, ErrCorruptRow
	})
	if err == nil {
		t.Fatal("UDF error swallowed")
	}
}

func TestRepartitionShuffles(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(60, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Repartition("t16", tb, 16)
	if err != nil {
		t.Fatalf("Repartition: %v", err)
	}
	if out.NumPartitions() != 16 {
		t.Errorf("np = %d, want 16", out.NumPartitions())
	}
	n, err := out.NumRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Errorf("rows = %d, want 60", n)
	}
	if e.Counters().Snapshot().BytesShuffled <= 0 {
		t.Error("shuffle bytes not counted")
	}
	if _, err := e.Repartition("bad", tb, -1); err == nil {
		t.Error("accepted negative np")
	}
}

func joinFixture(t *testing.T, e *Engine) (*Table, *Table) {
	t.Helper()
	strRows := makeRows(30, 3)
	imgRows := make([]Row, 30)
	for i := range imgRows {
		imgRows[i] = Row{
			ID:       int64(i),
			Image:    []byte{byte(i)},
			Features: tensor.NewTensorList(tensor.MustFromSlice([]float32{float32(i)}, 1)),
		}
	}
	ts, err := e.CreateTable("str", strRows, 4)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := e.CreateTable("img", imgRows, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ts, ti
}

func TestShuffleJoin(t *testing.T) {
	e := newTestEngine(t, testConfig())
	ts, ti := joinFixture(t, e)
	joined, err := e.Join("j", ts, ti, ShuffleJoin)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	rows, err := e.Collect(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("joined %d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if r.Structured == nil || r.Image == nil || r.Features == nil {
			t.Fatalf("row %d missing payloads after join: %+v", r.ID, r)
		}
		if r.Features.Get(0).Data()[0] != float32(r.ID) {
			t.Fatalf("row %d features misaligned", r.ID)
		}
	}
}

func TestShuffleJoinRealignsPartitions(t *testing.T) {
	e := newTestEngine(t, testConfig())
	strRows := makeRows(20, 2)
	imgRows := make([]Row, 20)
	for i := range imgRows {
		imgRows[i] = Row{ID: int64(i), Image: []byte{1}}
	}
	ts, err := e.CreateTable("str", strRows, 4)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := e.CreateTable("img", imgRows, 7) // mismatched np
	if err != nil {
		t.Fatal(err)
	}
	joined, err := e.Join("j", ts, ti, ShuffleJoin)
	if err != nil {
		t.Fatalf("Join with mismatched np: %v", err)
	}
	n, err := joined.NumRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Errorf("joined rows = %d, want 20", n)
	}
}

func TestBroadcastJoin(t *testing.T) {
	e := newTestEngine(t, testConfig())
	ts, ti := joinFixture(t, e)
	joined, err := e.Join("j", ts, ti, BroadcastJoin)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	rows, err := e.Collect(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("joined %d rows, want 30", len(rows))
	}
	snap := e.Counters().Snapshot()
	if snap.BytesBroadcast <= 0 {
		t.Error("broadcast bytes not counted")
	}
	for _, r := range rows {
		if r.Structured == nil || r.Image == nil {
			t.Fatalf("row %d missing payloads: %+v", r.ID, r)
		}
	}
}

func TestJoinInnerSemantics(t *testing.T) {
	e := newTestEngine(t, testConfig())
	left, err := e.CreateTable("l", makeRows(10, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	rightRows := []Row{{ID: 3, Image: []byte{1}}, {ID: 7, Image: []byte{2}}, {ID: 99, Image: []byte{3}}}
	right, err := e.CreateTable("r", rightRows, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []JoinKind{ShuffleJoin, BroadcastJoin} {
		joined, err := e.Join("j", left, right, kind)
		if err != nil {
			t.Fatalf("%v join: %v", kind, err)
		}
		rows, err := e.Collect(joined)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("%v join produced %d rows, want 2 (inner)", kind, len(rows))
		}
		if rows[0].ID != 3 || rows[1].ID != 7 {
			t.Fatalf("%v join wrong keys: %d, %d", kind, rows[0].ID, rows[1].ID)
		}
		joined.Drop()
	}
}

func TestJoinUnknownKind(t *testing.T) {
	e := newTestEngine(t, testConfig())
	ts, ti := joinFixture(t, e)
	if _, err := e.Join("j", ts, ti, JoinKind(42)); err == nil {
		t.Error("accepted unknown join kind")
	}
}

func TestJoinKindString(t *testing.T) {
	if ShuffleJoin.String() != "shuffle" || BroadcastJoin.String() != "broadcast" {
		t.Error("join kind names wrong")
	}
	if Deserialized.String() != "deserialized" || Serialized.String() != "serialized" {
		t.Error("persist format names wrong")
	}
}

func TestDropReleasesStorage(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(100, 50), 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.StorageUsed() <= 0 {
		t.Fatal("nothing cached")
	}
	tb.Drop()
	if e.StorageUsed() != 0 {
		t.Errorf("storage used after drop = %d", e.StorageUsed())
	}
	// Dropping nil and already-dropped tables is safe.
	tb.Drop()
	var nilT *Table
	nilT.Drop()
}

func TestSerializedFormatSmallerFootprint(t *testing.T) {
	rows := makeRows(200, 100) // zero-heavy payload compresses well
	cfgD := testConfig()
	cfgD.DefaultFormat = Deserialized
	eD := newTestEngine(t, cfgD)
	tD, err := eD.CreateTable("t", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfgS := testConfig()
	cfgS.DefaultFormat = Serialized
	eS := newTestEngine(t, cfgS)
	tS, err := eS.CreateTable("t", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tS.MemBytes() >= tD.MemBytes() {
		t.Errorf("serialized footprint %d not below deserialized %d", tS.MemBytes(), tD.MemBytes())
	}
	// Data must still be readable.
	got, err := eS.Collect(tS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Errorf("collected %d rows from serialized table", len(got))
	}
}

func TestSparkSpillsUnderPressure(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5) // tiny storage forces spills
	e := newTestEngine(t, cfg)
	tb, err := e.CreateTable("big", makeRows(5000, 100), 8)
	if err != nil {
		t.Fatalf("Spark-like ingest should spill, not fail: %v", err)
	}
	snap := e.Counters().Snapshot()
	if snap.BytesSpilled <= 0 {
		t.Error("expected disk spills under storage pressure")
	}
	// Data survives the spills.
	rows, err := e.Collect(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5000 {
		t.Errorf("collected %d rows, want 5000", len(rows))
	}
	if e.Counters().Snapshot().BytesUnspilled <= 0 {
		t.Error("collect should have read spilled partitions back")
	}
}

func TestIgniteCrashesUnderPressure(t *testing.T) {
	cfg := testConfig()
	cfg.Kind = memory.IgniteLike
	cfg.Nodes = 1
	cfg.Apportion.Storage = memory.MB(0.5)
	e := newTestEngine(t, cfg)
	_, err := e.CreateTable("big", makeRows(5000, 100), 8)
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("memory-only system should crash with OOM, got %v", err)
	}
	if oom.Scenario != memory.StorageExhausted {
		t.Errorf("scenario = %v, want storage-exhausted", oom.Scenario)
	}
}

func TestUserMemoryCrashInUDF(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.User = memory.MB(1)
	e := newTestEngine(t, cfg)
	tb, err := e.CreateTable("t", makeRows(10, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	// UDF inflates rows with large feature tensors exceeding User Memory.
	_, err = e.MapPartitions("inflate", tb, func(_ *TaskContext, in []Row) ([]Row, error) {
		out := make([]Row, len(in))
		for i, r := range in {
			c := r.Clone()
			c.Features = tensor.NewTensorList(tensor.New(1 << 18)) // 1 MB each
			out[i] = c
		}
		return out, nil
	})
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected user-memory OOM, got %v", err)
	}
	if oom.Scenario != memory.InsufficientUser {
		t.Errorf("scenario = %v, want insufficient-user-memory (crash scenario 2)", oom.Scenario)
	}
}

func TestCoreMemoryCrashInJoin(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.Core = 16 // essentially no join memory
	e := newTestEngine(t, cfg)
	ts, ti := joinFixture(t, e)
	_, err := e.Join("j", ts, ti, ShuffleJoin)
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected core-memory OOM, got %v", err)
	}
	if oom.Scenario != memory.LargePartition {
		t.Errorf("scenario = %v, want oversized-partition (crash scenario 3)", oom.Scenario)
	}
}

func TestBroadcastCrashWhenTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.Apportion.User = memory.MB(1)
	e := newTestEngine(t, cfg)
	big, err := e.CreateTable("big", makeRows(3000, 100), 4)
	if err != nil {
		t.Fatal(err)
	}
	small, err := e.CreateTable("small", makeRows(10, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Join("j", big, small, BroadcastJoin)
	if _, ok := memory.IsOOM(err); !ok {
		t.Fatalf("expected broadcast OOM (Figure 10 crash), got %v", err)
	}
}

func TestDriverOOMOnCollect(t *testing.T) {
	cfg := testConfig()
	cfg.DriverMemory = 1024
	e := newTestEngine(t, cfg)
	tb, err := e.CreateTable("t", makeRows(1000, 100), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Collect(tb)
	oom, ok := memory.IsOOM(err)
	if !ok {
		t.Fatalf("expected driver OOM, got %v", err)
	}
	if oom.Scenario != memory.DriverOOM {
		t.Errorf("scenario = %v, want driver-oom (crash scenario 4)", oom.Scenario)
	}
	if !strings.Contains(oom.Error(), "collect") {
		t.Errorf("error lacks collect context: %v", oom)
	}
}

// TestPartitionRowsBounds checks CreateTable's hash placement: every row lands
// in partition ID mod np, and every partition is populated.
func TestPartitionRowsBounds(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(10, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	var seen [3]atomic.Int32
	err = e.ForEachPartition(tb, func(tc *TaskContext, rows []Row) error {
		seen[tc.Part].Add(int32(len(rows)))
		for _, r := range rows {
			if int(r.ID)%3 != tc.Part {
				return fmt.Errorf("hash partitioning broken: ID %d in partition %d", r.ID, tc.Part)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i].Load() == 0 {
			t.Errorf("partition %d is empty", i)
		}
	}
}

func TestEngineCloseIdempotent(t *testing.T) {
	e := newTestEngine(t, testConfig())
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close failed")
	}
}

func TestTaskContextUserAccounting(t *testing.T) {
	e := newTestEngine(t, testConfig())
	tb, err := e.CreateTable("t", makeRows(4, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.MapPartitions("m", tb, func(tc *TaskContext, in []Row) ([]Row, error) {
		tc.AddFLOPs(100)
		return in, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Counters().Snapshot().FLOPs < 200 {
		t.Error("FLOPs not accumulated from tasks")
	}
	for i := 0; i < e.Config().Nodes; i++ {
		if e.UserPool(i).Used() != 0 {
			t.Errorf("node %d user memory leaked: %d", i, e.UserPool(i).Used())
		}
	}
}
