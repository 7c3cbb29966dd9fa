package data

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/featurestore"
)

// tinySpec is a dataset small enough to generate in well under a millisecond;
// seed distinguishes catalog entries.
func tinySpec(seed int64) Spec {
	return Spec{Name: "t", Rows: 4, StructDim: 3, ImageSize: 8, Seed: seed}
}

func TestPreset(t *testing.T) {
	for name, want := range map[string]Spec{"foods": Foods(), "amazon": Amazon()} {
		if got, ok := Preset(name); !ok || got != want {
			t.Errorf("Preset(%q) = %+v, %v", name, got, ok)
		}
	}
	if _, ok := Preset("imagenet"); ok {
		t.Error("Preset accepted an unknown name")
	}
}

func TestCatalogEntryCarriesItsStatistics(t *testing.T) {
	spec := Foods().WithRows(6)
	tables, err := NewCatalog().Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	structRows, imageRows, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tables.Spec != spec || len(tables.StructRows) != 6 || len(tables.ImageRows) != 6 {
		t.Fatalf("tables = %+v rows %d/%d", tables.Spec, len(tables.StructRows), len(tables.ImageRows))
	}
	if want := featurestore.DataChecksum(imageRows); tables.DataSum() != want {
		t.Errorf("DataSum = %s, want %s", tables.DataSum(), want)
	}
	if want := Stats(structRows, imageRows); tables.Stats != want {
		t.Errorf("Stats = %+v, want %+v", tables.Stats, want)
	}
	if est := spec.estimatedBytes(); tables.Bytes() != est {
		t.Errorf("Bytes %d, but the pre-generation estimate was %d", tables.Bytes(), est)
	}
}

// resident reports whether c holds spec's finished tables.
func resident(c *Catalog, spec Spec) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.tables.Peek(spec)
	return ok
}

// TestCatalogSingleflight holds the first generation open until every other
// caller has joined it (each join is an event on the catalog's joined
// channel), then lets it finish: one generation serves all of them the same
// tables.
func TestCatalogSingleflight(t *testing.T) {
	const callers = 8
	c := NewCatalog()
	var generations atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	c.generate = func(s Spec) ([]dataflow.Row, []dataflow.Row, error) {
		if generations.Add(1) == 1 {
			close(started)
		}
		<-release
		return Generate(s)
	}
	joined := make(chan struct{})
	c.joined = joined

	got := make([]*Tables, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		got[i], errs[i] = c.Get(tinySpec(1))
	}
	wg.Add(callers)
	go get(0)
	<-started // the flight is registered: every later Get joins it
	for i := 1; i < callers; i++ {
		go get(i)
	}
	for i := 1; i < callers; i++ {
		<-joined
	}
	if resident(c, tinySpec(1)) {
		t.Error("an entry still being generated counts as resident")
	}
	close(release)
	wg.Wait()
	if n := generations.Load(); n != 1 {
		t.Fatalf("%d generations for %d concurrent first gets, want 1", n, callers)
	}
	for i := range got {
		if errs[i] != nil || got[i] != got[0] {
			t.Fatalf("caller %d got %p, %v; caller 0 got %p", i, got[i], errs[i], got[0])
		}
	}
	if again, err := c.Get(tinySpec(1)); err != nil || again != got[0] || generations.Load() != 1 {
		t.Fatalf("a later Get regenerated: %p vs %p, %d generations", again, got[0], generations.Load())
	}
}

func TestCatalogEvictsLeastRecentlyUsedByBytes(t *testing.T) {
	// Every tinySpec entry charges the size its spec predicts: room for two,
	// not for three.
	size := tinySpec(1).estimatedBytes()
	c := newCatalog(3*size - 1)
	for _, seed := range []int64{1, 2} {
		if _, err := c.Get(tinySpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(tinySpec(1)); err != nil { // 1 is now more recent than 2
		t.Fatal(err)
	}
	if _, err := c.Get(tinySpec(3)); err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[int64]bool{1: true, 2: false, 3: true} {
		if got := resident(c, tinySpec(seed)); got != want {
			t.Errorf("entry %d resident = %v, want %v", seed, got, want)
		}
	}
	if want := 2 * size; c.tables.Used() != want {
		t.Errorf("used = %d, want %d", c.tables.Used(), want)
	}
	// An evicted dataset is simply generated again.
	if _, err := c.Get(tinySpec(2)); err != nil {
		t.Fatal(err)
	}
	if resident(c, tinySpec(1)) {
		t.Error("re-admitting 2 did not evict the least recently used entry 1")
	}
}

func TestCatalogBypassesDatasetsOverBudget(t *testing.T) {
	small, big := tinySpec(1), tinySpec(2).WithRows(64)
	one, err := NewCatalog().Get(small)
	if err != nil {
		t.Fatal(err)
	}
	c := newCatalog(2 * one.Bytes())
	var generations atomic.Int32
	c.generate = func(s Spec) ([]dataflow.Row, []dataflow.Row, error) {
		generations.Add(1)
		return Generate(s)
	}
	if _, err := c.Get(small); err != nil {
		t.Fatal(err)
	}
	a, err := c.Get(big)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(big)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || generations.Load() != 3 {
		t.Errorf("over-budget dataset was shared or cached: %p %p, %d generations", a, b, generations.Load())
	}
	if a.DataSum() != b.DataSum() || a.Stats != b.Stats || a.Stats.NumRows != big.Rows {
		t.Errorf("bypassed tables differ: %q %+v vs %q %+v", a.DataSum(), a.Stats, b.DataSum(), b.Stats)
	}
	if resident(c, big) {
		t.Error("over-budget dataset is resident")
	}
	if !resident(c, small) {
		t.Error("an over-budget Get evicted a resident entry")
	}
}

func TestCatalogDoesNotCacheGenerationErrors(t *testing.T) {
	c := NewCatalog()
	boom := errors.New("boom")
	fail := true
	c.generate = func(s Spec) ([]dataflow.Row, []dataflow.Row, error) {
		if fail {
			return nil, nil, boom
		}
		return Generate(s)
	}
	if _, err := c.Get(tinySpec(1)); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want the generation error", err)
	}
	if n := c.tables.Len() + len(c.flights); n != 0 || c.tables.Used() != 0 {
		t.Fatalf("failed generation left %d entries, %d bytes", n, c.tables.Used())
	}
	fail = false
	if tables, err := c.Get(tinySpec(1)); err != nil || tables == nil {
		t.Fatalf("Get after a failed generation = %v, %v", tables, err)
	}
	// The real generator's own validation error takes the same path.
	if _, err := NewCatalog().Get(Spec{Name: "bad"}); err == nil {
		t.Error("invalid spec generated")
	}
}
