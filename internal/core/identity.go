package core

import (
	"fmt"
	"sync"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/lru"
	"repro/internal/plan"
)

// Identity is the request-invariant state of one run: everything that is a
// pure function of the spec's model, |L|, plan overrides, seed and image
// table. Sharing (ShareFingerprint), pricing (Price), the feature-store probe
// and the DL session all read it, so a caller that walks a spec through more
// than one of them resolves it once (Resolve), sets Spec.Identity, and each
// step stops re-deriving model → stats → plan → weights → checksums.
//
// The checksums and the realized weights are computed on first use: a run
// with no store and no sharing never hashes its image table, and a run whose
// sums are memoized and whose stages all attach from cache never realizes
// weights at all. An Identity is safe for concurrent use.
type Identity struct {
	Model *cnn.Model
	Stats *cnn.Stats
	// Plan is the compiled logical plan.
	Plan *plan.Plan
	// ImageRowBytes is Spec.AvgImageBytes: the image-row size the optimizer
	// prices.
	ImageRowBytes int64

	// from is what Resolve derived all of this from; a spec that no longer
	// matches it must not use this identity.
	from      identityInputs
	imageRows []dataflow.Row

	sumsOnce            sync.Once
	weightsSum, dataSum string
	sumsErr             error

	weightsOnce sync.Once
	weights     *cnn.Weights
	weightsErr  error
}

// identityInputs are the spec fields an Identity is a function of, in
// comparable form (the image table by slice identity, not content).
type identityInputs struct {
	model         string
	numLayers     int
	planKind      plan.Kind
	placement     plan.JoinPlacement
	seed          int64
	firstImageRow *dataflow.Row
	numImageRows  int
	tables        *data.Tables
}

func (s *Spec) identityInputs() identityInputs {
	in := identityInputs{
		model: s.ModelName, numLayers: s.NumLayers,
		planKind: s.PlanKind, placement: s.Placement,
		seed: s.Seed, numImageRows: len(s.ImageRows), tables: s.catalogTables(),
	}
	if len(s.ImageRows) > 0 {
		in.firstImageRow = &s.ImageRows[0]
	}
	return in
}

// Resolve validates spec and derives its Identity. Resolve after the last
// change to the fields the identity depends on (ModelName, NumLayers,
// PlanKind, Placement, Seed, ImageRows); everything else on the spec may
// still change afterwards.
func Resolve(spec Spec) (*Identity, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	model, err := cnn.ByName(spec.ModelName)
	if err != nil {
		return nil, err
	}
	stats, err := cnn.ComputeStats(model)
	if err != nil {
		return nil, err
	}
	compiled, err := plan.Compile(spec.PlanKind, spec.Placement, stats, spec.NumLayers, plan.Options{})
	if err != nil {
		return nil, err
	}
	return &Identity{
		Model:         model,
		Stats:         stats,
		Plan:          compiled,
		ImageRowBytes: spec.AvgImageBytes(),
		from:          spec.identityInputs(),
		imageRows:     spec.ImageRows,
	}, nil
}

// identity returns the spec's resolved Identity, resolving (and validating)
// the spec when the caller did not. A caller-set Identity that was resolved
// from other inputs than the spec now carries is rejected: using it would
// address the store with another run's checksums.
func (s *Spec) identity() (*Identity, error) {
	if s.Identity == nil {
		return Resolve(*s)
	}
	if s.Identity.from != s.identityInputs() {
		return nil, fmt.Errorf("core: spec changed after its Identity was resolved (was %s seed %d over %d rows, now %s seed %d over %d rows); resolve again",
			s.Identity.from.model, s.Identity.from.seed, s.Identity.from.numImageRows, s.ModelName, s.Seed, len(s.ImageRows))
	}
	return s.Identity, nil
}

// Weights returns the model's weights realized under the spec's seed,
// realizing them on first call. The result is shared: treat it as read-only
// (dl.NewSession borrows these very slices through dl.Options.Weights and
// only ever reads them).
func (id *Identity) Weights() (*cnn.Weights, error) {
	id.weightsOnce.Do(func() {
		id.weights, id.weightsErr = id.Model.RealizeWeights(id.from.seed)
	})
	return id.weights, id.weightsErr
}

// Sums returns the run's content-address components, the weights checksum
// and the image table's checksum: from the process-wide memo when this
// workload resolved them before, else by preparing the model (realizing the
// weights and hashing them, in one flight per (model, seed) that every
// concurrent miss joins and takes its weights from) and hashing the rows
// (once per catalog entry, whichever run gets there first).
func (id *Identity) Sums() (weightsSum, dataSum string, err error) {
	id.sumsOnce.Do(func() {
		tables := id.from.tables
		key := sumsKey{model: id.Model.Name, seed: id.from.seed}
		if tables != nil {
			key.data = tables.Spec
		}
		memo, ok := sumsMemo.get(key)
		if !ok {
			p, err := preparations.prepare(id.Model, id.from.seed)
			if err != nil {
				id.sumsErr = err
				return
			}
			id.weightsOnce.Do(func() { id.weights = p.weights })
			memo.weights = p.sum
			if tables != nil {
				memo.data = tables.DataSum()
			}
			sumsMemo.put(key, memo)
		}
		id.weightsSum, id.dataSum = memo.weights, memo.data
		if tables == nil {
			id.dataSum = featurestore.DataChecksum(id.imageRows)
		}
	})
	return id.weightsSum, id.dataSum, id.sumsErr
}

// preparations is the process's one preparer: concurrent first sightings of
// a (model, seed) share one realization and one hash.
var preparations = newPreparer()

// prepKey names a prepared model: its weights are a pure function of the
// roster model and the seed.
type prepKey struct {
	model string
	seed  int64
}

// preparation is one (model, seed) being prepared — the realized weights and
// their checksum, what Vista's driver builds once and broadcasts (Section
// 4.1). weights, sum and err are set before done is closed.
type preparation struct {
	done    chan struct{}
	weights *cnn.Weights
	sum     string
	err     error
}

// preparer runs at most one preparation per key at a time, the way
// data.Catalog generates a dataset: a caller that finds the key in flight
// waits for that flight's result instead of starting its own. Nothing
// outlives a flight; the sums memo keeps the checksum, and each Identity
// that took part keeps its pointer to the weights.
type preparer struct {
	// realize is cnn.(*Model).RealizeWeights; tests substitute a gated or
	// failing one.
	realize func(m *cnn.Model, seed int64) (*cnn.Weights, error)
	// joined, when non-nil, receives one value per prepare that joins
	// another caller's flight, sent before it parks.
	joined chan<- struct{}

	mu      sync.Mutex
	flights map[prepKey]*preparation
}

func newPreparer() *preparer {
	return &preparer{
		realize: (*cnn.Model).RealizeWeights,
		flights: make(map[prepKey]*preparation),
	}
}

// prepare returns m's weights under seed and their checksum. A failure
// reaches every caller waiting on that flight and is not remembered: the
// next prepare retries.
func (pr *preparer) prepare(m *cnn.Model, seed int64) (*preparation, error) {
	key := prepKey{model: m.Name, seed: seed}
	pr.mu.Lock()
	if p, ok := pr.flights[key]; ok {
		pr.mu.Unlock()
		if pr.joined != nil {
			pr.joined <- struct{}{}
		}
		<-p.done
		return p, p.err
	}
	p := &preparation{done: make(chan struct{})}
	pr.flights[key] = p
	pr.mu.Unlock()

	if p.weights, p.err = pr.realize(m, seed); p.err == nil {
		p.sum = cnn.WeightsChecksum(p.weights)
	}

	pr.mu.Lock()
	delete(pr.flights, key)
	pr.mu.Unlock()
	close(p.done)
	return p, p.err
}

// sumsMemoCap bounds the process-wide sums memo. An entry is ~250 bytes, so
// the cap is a memory bound (~256 KiB), not a tuning knob: a working set of
// more than a thousand live workloads just pays one weight realization per
// re-entry, as every request did before the memo.
const sumsMemoCap = 1024

// sumsKey names a workload's content: the roster model and seed its weights
// are a pure function of, and the data.Spec its catalogued image table is a
// pure function of. Rows no catalog built have no such name; their runs use
// the zero data.Spec and memoize the weights checksum alone.
type sumsKey struct {
	model string
	seed  int64
	data  data.Spec
}

// sums are a workload's two checksums (data is empty under a key with the
// zero data.Spec).
type sums struct{ weights, data string }

// sumsMemo remembers the checksums of the workloads this process resolved.
// Both are pure functions of the key, so the memo is invisible except in
// time: a repeat fingerprint of a served workload realizes no weights and
// touches no rows.
var sumsMemo = newSumMemo(sumsMemoCap)

// memoizedSums reports the content-address checksums of the workload
// (model, seed, dataset) if a run over a catalog entry of that dataset
// resolved them in this process (and the memo still holds them). It computes
// nothing, so StoredEntries stays cheap. The sums outlive the catalog's
// tables, so a workload whose dataset was evicted, or never held, still
// answers.
func memoizedSums(model string, seed int64, dataset data.Spec) (weightsSum, dataSum string, ok bool) {
	memo, ok := sumsMemo.get(sumsKey{model: model, seed: seed, data: dataset})
	if !ok || memo.data == "" {
		return "", "", false
	}
	return memo.weights, memo.data, true
}

// sumMemo is a bounded map with least-recently-used replacement: each entry
// is charged 1 against a budget of capacity entries.
type sumMemo struct {
	mu    sync.Mutex
	cache *lru.Cache[sumsKey, sums]
}

func newSumMemo(capacity int) *sumMemo {
	return &sumMemo{cache: lru.New[sumsKey, sums](int64(capacity), nil)}
}

func (m *sumMemo) get(k sumsKey) (sums, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.Get(k)
}

func (m *sumMemo) put(k sumsKey, sum sums) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.Add(k, sum, 1)
}
