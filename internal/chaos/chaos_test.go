package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/dl"
	"repro/internal/faultinject"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Schedule counts. CI's -short smoke keeps the -race run fast; the full set
// exceeds the 200-schedule acceptance floor (engineFull + coreFull).
const (
	engineFull, engineShort = 140, 12
	coreFull, coreShort     = 80, 8
)

// typedErr reports whether err belongs to one of the repo's typed failure
// families — the chaos contract is that injected faults never surface as
// anything else.
func typedErr(err error) bool {
	if _, ok := faultinject.AsFault(err); ok {
		return true
	}
	var oom *memory.OOMError
	if errors.As(err, &oom) {
		return true
	}
	return errors.Is(err, dataflow.ErrCorruptRow)
}

// A site is either hit per call (Hit) or per byte batch (HitBytes); byte
// policies only make sense at byte sites.
type site struct {
	name  string
	bytes bool
}

var engineSites = []site{
	{dataflow.FaultSpillWrite, true},
	{dataflow.FaultUnspillRead, false},
	{dataflow.FaultUnspillAdmit, false},
	{dataflow.FaultRowEncode, false},
	{dataflow.FaultRowDecode, false},
}

var coreSites = []site{
	{core.FaultStage, false},
	{core.FaultStage + ":ingest", false},
	{core.FaultStage + ":join", false},
	{core.FaultStage + ":infer", false},
	{core.FaultStage + ":train", false},
	{core.FaultStage + ":cache", false},
	{dl.FaultSessionBroadcast, false},
	{dl.FaultInferBatch, false},
	{featurestore.FaultEntryRead, false},
	{featurestore.FaultEntryWrite + ".write", true},
	{dataflow.FaultSpillWrite, true},
	{dataflow.FaultUnspillRead, false},
	{dataflow.FaultUnspillAdmit, false},
}

// armedSchedule describes what armRandom installed.
type armedSchedule struct {
	names []string
	// silentTear is true when a SilentTruncate policy was armed: torn bytes
	// land on disk with no error, so live-process state may legitimately
	// disagree with the files until the next (re)open reconciles them.
	silentTear bool
}

// armRandom arms 1–2 sites from the catalog with policies drawn from the
// seeded rng.
func armRandom(rng *rand.Rand, catalog []site) armedSchedule {
	n := 1 + rng.Intn(2)
	var sched armedSchedule
	for i := 0; i < n; i++ {
		s := catalog[rng.Intn(len(catalog))]
		var p faultinject.Policy
		if s.bytes && rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				p = faultinject.FailAfterBytes(16 + rng.Int63n(4096))
			} else {
				p = faultinject.SilentTruncate(rng.Int63n(64))
				sched.silentTear = true
			}
		} else {
			switch rng.Intn(3) {
			case 0:
				p = faultinject.FailNth(1 + rng.Int63n(5))
			case 1:
				p = faultinject.FailEveryKth(2 + rng.Int63n(3))
			default:
				p = faultinject.FailRandom(rng.Int63(), 0.1+0.4*rng.Float64())
			}
		}
		faultinject.Arm(s.name, p)
		sched.names = append(sched.names, s.name)
	}
	return sched
}

func chaosRows(n, dim int) []dataflow.Row {
	rows := make([]dataflow.Row, n)
	for i := range rows {
		s := make([]float32, dim)
		for j := range s {
			s[j] = float32(i*dim + j)
		}
		rows[i] = dataflow.Row{ID: int64(i), Label: float32(i % 2), Structured: s}
	}
	return rows
}

// storageUsed sums every node's vista_pool_used_bytes{pool="storage"} gauge:
// the bytes e holds cached across the cluster.
func storageUsed(e *dataflow.Engine) int64 {
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	var total int64
	for _, s := range reg.Samples(func(name string) bool { return name == "vista_pool_used_bytes" }) {
		if strings.Contains(s.Labels, `pool="storage"`) {
			total += int64(s.Value)
		}
	}
	return total
}

// engineSchedule runs one seeded fault schedule against a bare engine:
// ingest → map → collect → drop, with a storage budget tight enough that
// spill and unspill sites are live. Whatever the faults do, errors must stay
// typed and every pool and spill file must be gone at the end.
func engineSchedule(t *testing.T, seed int64) {
	defer faultinject.DisarmAll()
	rng := rand.New(rand.NewSource(seed))
	spillDir := t.TempDir()
	kind := memory.SparkLike
	if rng.Intn(4) == 0 {
		kind = memory.IgniteLike // memory-only: pressure surfaces as typed OOM
	}
	cfg := dataflow.Config{
		Nodes:        1 + rng.Intn(2),
		CoresPerNode: 2,
		Kind:         kind,
		Apportion: memory.Apportionment{
			OSReserved:  memory.MB(64),
			DLExecution: memory.MB(64),
			User:        memory.MB(64),
			Core:        memory.MB(64),
			Storage:     memory.MB(0.25),
		},
		DriverMemory: memory.MB(64),
		SpillDir:     spillDir,
	}
	e, err := dataflow.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	sched := armRandom(rng, engineSites)
	armed := sched.names
	check := func(op string, err error) bool {
		if err == nil {
			return true
		}
		if !typedErr(err) {
			t.Fatalf("sites %v: %s surfaced untyped error: %v", armed, op, err)
		}
		return false
	}

	tb, err := e.CreateTable("chaos", chaosRows(1500+rng.Intn(1000), 64), 4+rng.Intn(4))
	if check("CreateTable", err) {
		out, err := e.MapPartitions("mapped", tb, func(_ *dataflow.TaskContext, in []dataflow.Row) ([]dataflow.Row, error) {
			res := make([]dataflow.Row, len(in))
			for i := range in {
				res[i] = in[i]
				res[i].Label = -in[i].Label
			}
			return res, nil
		})
		if check("MapPartitions", err) {
			_, err = e.Collect(out)
			check("Collect", err)
			out.Drop()
		}
		tb.Drop()
	}
	faultinject.DisarmAll()

	if used := storageUsed(e); used != 0 {
		t.Errorf("sites %v: %d storage bytes leaked after drops", armed, used)
	}
	if used := e.DriverPool().Used(); used != 0 {
		t.Errorf("sites %v: %d driver bytes leaked", armed, used)
	}
	for i := 0; i < cfg.Nodes; i++ {
		if used := e.UserPool(i).Used(); used != 0 {
			t.Errorf("sites %v: node %d leaked %d user bytes", armed, i, used)
		}
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	des, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatalf("spill dir unreadable after Close: %v", err)
	}
	if len(des) != 0 {
		t.Errorf("sites %v: %d spill files orphaned after Close", armed, len(des))
	}
}

func TestChaosEngine(t *testing.T) {
	n := engineFull
	if testing.Short() {
		n = engineShort
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			engineSchedule(t, seed)
		})
	}
}

// coreSchedule drives the full declarative pipeline — the quickstart workload
// shrunk to a few rows — under one seeded fault schedule, with a live feature
// store. The run may fail (typed) or succeed; either way the store must
// re-open consistent and the spill directory must come back empty.
func coreSchedule(t *testing.T, seed int64, structRows, imageRows []dataflow.Row) {
	defer faultinject.DisarmAll()
	rng := rand.New(rand.NewSource(seed))
	storeDir, spillDir := t.TempDir(), t.TempDir()
	st, err := featurestore.Open(storeDir, 0)
	if err != nil {
		t.Fatalf("Open store: %v", err)
	}
	spec := core.Spec{
		Nodes:        2,
		CoresPerNode: 2,
		MemPerNode:   memory.GB(32),
		SystemKind:   memory.SparkLike,
		ModelName:    "tiny-alexnet",
		NumLayers:    2,
		Downstream:   core.DefaultDownstream(),
		StructRows:   structRows,
		ImageRows:    imageRows,
		Seed:         42,
		FeatureStore: st,
		SpillDir:     spillDir,
	}

	sched := armRandom(rng, coreSites)
	armed := sched.names
	_, err = core.Run(spec)
	faultinject.DisarmAll()
	if err != nil && !typedErr(err) {
		t.Fatalf("sites %v: core.Run surfaced untyped error: %v", armed, err)
	}

	// A silent tear is only observable after a reopen (it models a no-fsync
	// crash); the live store may disagree with the torn file until then.
	if !sched.silentTear {
		if err := st.Fsck(); err != nil {
			t.Errorf("sites %v: store inconsistent after run: %v", armed, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Errorf("store Close: %v", err)
	}
	st2, err := featurestore.Open(storeDir, 0)
	if err != nil {
		t.Fatalf("sites %v: store unreopenable after run: %v", armed, err)
	}
	if err := st2.Fsck(); err != nil {
		t.Errorf("sites %v: store inconsistent after reopen: %v", armed, err)
	}
	des, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatalf("spill dir unreadable after run: %v", err)
	}
	if len(des) != 0 {
		t.Errorf("sites %v: %d spill files orphaned after run", armed, len(des))
	}
}

func TestChaosCoreRun(t *testing.T) {
	ds := data.Foods().WithRows(12)
	structRows, imageRows, err := data.Generate(ds)
	if err != nil {
		t.Fatal(err)
	}
	n := coreFull
	if testing.Short() {
		n = coreShort
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			coreSchedule(t, seed, structRows, imageRows)
		})
	}
}
