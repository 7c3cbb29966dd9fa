package data

import (
	"sync"

	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/lru"
	"repro/internal/tensor"
)

// Tables is one generated dataset with what every run over it needs, computed
// once. Only a Catalog builds Tables. A Tables handed out by a Catalog is
// shared by every concurrent run over that dataset: the row slices and
// everything they point to (structured vectors, image payloads) are read-only,
// the same rule dataflow.PartitionFunc states for a partition's input. Runs
// that change rows work on their own copies (the engine's ingest copies the
// row structs).
type Tables struct {
	// Spec is what the rows were generated from, hence a name for their
	// content: equal Specs mean equal rows.
	Spec Spec
	// StructRows and ImageRows are Tstr(ID, X) and Timg(ID, I), aligned on ID.
	StructRows, ImageRows []dataflow.Row
	Stats                 TableStats

	sumOnce sync.Once
	dataSum string
}

// DataSum is featurestore.DataChecksum(ImageRows), the data half of every
// feature-store content address over these rows. It hashes every image
// payload, so it is computed on first use, once for all runs sharing t: a run
// with no store and no sharing never pays for it.
func (t *Tables) DataSum() string {
	t.sumOnce.Do(func() { t.dataSum = featurestore.DataChecksum(t.ImageRows) })
	return t.dataSum
}

// Bytes is the tables' resident size: what a Catalog charges against its
// budget for holding them.
func (t *Tables) Bytes() int64 {
	return int64(t.Stats.NumRows) * (t.Stats.StructRowBytes + t.Stats.ImageRowBytes)
}

// catalogBytes is every catalog's budget: the feature store's default, and
// room for about 5000 rows of a 64×64 preset (a generated row is ≈ 49 KiB,
// nearly all of it the float32 image, so the 100-row datasets of a typical
// served workload are ≈ 4.7 MiB each). A constant, not a parameter: no caller
// has a reason to pick another value.
const catalogBytes = 256 << 20

// Catalog hands out generated datasets as shared immutable Tables. The tables
// are a pure function of the Spec, so a process generates each one once —
// concurrent first requests wait for a single generation — and keeps the
// least recently used ones within a byte budget. A dataset that cannot fit
// the budget is never held: it is generated for each caller, which then owns
// it alone, exactly as a process without a catalog would.
type Catalog struct {
	budget int64 // catalogBytes outside tests
	// generate is Generate; tests substitute a gated or failing one.
	generate func(Spec) (structRows, imageRows []dataflow.Row, err error)
	// joined, when non-nil, receives one value per Get that joins another
	// caller's generation, sent before it parks: the event tests wait on to
	// hold a generation open until every concurrent caller has arrived.
	joined chan<- struct{}

	mu sync.Mutex
	// tables holds finished datasets, charged Tables.Bytes; generations
	// still in progress live in flights only, so they are never evicted.
	tables  *lru.Cache[Spec, *Tables]
	flights map[Spec]*generation
}

// generation is one dataset being generated; tables and err are set before
// done is closed.
type generation struct {
	done   chan struct{}
	tables *Tables
	err    error
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return newCatalog(catalogBytes) }

func newCatalog(budget int64) *Catalog {
	return &Catalog{
		budget:   budget,
		generate: Generate,
		tables:   lru.New[Spec, *Tables](budget, nil),
		flights:  make(map[Spec]*generation),
	}
}

// Get returns the tables of spec, generating them if no earlier call did (or
// they were since evicted). A generation error is returned to every caller
// waiting on that generation and not remembered: the next Get retries.
func (c *Catalog) Get(spec Spec) (*Tables, error) {
	if spec.estimatedBytes() > c.budget {
		return c.build(spec)
	}
	c.mu.Lock()
	if t, ok := c.tables.Get(spec); ok {
		c.mu.Unlock()
		return t, nil
	}
	if g, ok := c.flights[spec]; ok {
		c.mu.Unlock()
		if c.joined != nil {
			c.joined <- struct{}{}
		}
		<-g.done
		return g.tables, g.err
	}
	g := &generation{done: make(chan struct{})}
	c.flights[spec] = g
	c.mu.Unlock()

	g.tables, g.err = c.build(spec)

	c.mu.Lock()
	delete(c.flights, spec)
	if g.err == nil && g.tables.Bytes() <= c.budget {
		c.tables.Add(spec, g.tables, g.tables.Bytes())
	}
	c.mu.Unlock()
	close(g.done)
	return g.tables, g.err
}

// build generates spec's tables and their row statistics.
func (c *Catalog) build(spec Spec) (*Tables, error) {
	structRows, imageRows, err := c.generate(spec)
	if err != nil {
		return nil, err
	}
	return &Tables{
		Spec:       spec,
		StructRows: structRows,
		ImageRows:  imageRows,
		Stats:      Stats(structRows, imageRows),
	}, nil
}

// estimatedBytes sizes spec's tables before generating them, exactly as
// Bytes will: per row, two rows' fixed overhead, the structured floats and
// the encoded image.
func (s Spec) estimatedBytes() int64 {
	overhead := (&dataflow.Row{}).MemBytes()
	image := int64(tensor.EncodedBytes(tensor.Shape{3, s.ImageSize, s.ImageSize}))
	return int64(s.Rows) * (2*overhead + 4*int64(s.StructDim) + image)
}
