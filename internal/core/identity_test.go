package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cnn"
	"repro/internal/data"
	"repro/internal/featurestore"
)

// TestSumMemoBounded is the regression test for the server's old per-workload
// runKeys map, which grew by one entry per distinct (model, dataset, rows,
// seed) for the life of the process: a cold-distinct-style client sending
// 10 000 distinct seeds leaves the memo at its cap, holding the newest keys.
func TestSumMemoBounded(t *testing.T) {
	m := newSumMemo(sumsMemoCap)
	key := func(seed int64) sumsKey {
		return sumsKey{model: "tiny-alexnet", seed: seed, data: data.Foods().WithRows(32)}
	}
	const seeds = 10000
	for seed := int64(0); seed < seeds; seed++ {
		m.put(key(seed), sums{weights: "w", data: "d"})
	}
	if n := m.cache.Len(); n != sumsMemoCap {
		t.Fatalf("memo holds %d entries after %d distinct seeds, want the cap %d", n, seeds, sumsMemoCap)
	}
	if _, ok := m.get(key(seeds - 1)); !ok {
		t.Error("newest key was evicted")
	}
	if _, ok := m.get(key(0)); ok {
		t.Error("oldest key survived 10x the cap of inserts")
	}
	// Re-inserting a resident key neither grows the memo nor evicts.
	oldest := key(seeds - sumsMemoCap)
	m.put(key(seeds-1), sums{weights: "w", data: "d"})
	if _, ok := m.get(oldest); !ok || m.cache.Len() != sumsMemoCap {
		t.Errorf("re-inserting a resident key evicted another (%d entries)", m.cache.Len())
	}
	// Replacement is least recently used: the lookup above made the oldest
	// insert the most recent use, so the next new key evicts the one after it.
	m.put(key(seeds), sums{weights: "w", data: "d"})
	if _, ok := m.get(oldest); !ok {
		t.Error("a key just looked up was evicted")
	}
	if _, ok := m.get(key(seeds - sumsMemoCap + 1)); ok {
		t.Error("the least recently used key survived a new insert at the cap")
	}
}

// TestIdentityMatchesDirectDerivation asserts the identity's lazily derived
// sums equal what each consumer used to derive for itself, over rows the
// caller built and over a catalog entry, and that only the catalogued
// workload's sums are then answerable by name (memoizedSums).
func TestIdentityMatchesDirectDerivation(t *testing.T) {
	const seed = 424242
	dataset := data.Foods().WithRows(12)
	tables, err := data.NewCatalog().Get(dataset)
	if err != nil {
		t.Fatal(err)
	}
	model, err := cnn.ByName("tiny-alexnet")
	if err != nil {
		t.Fatal(err)
	}
	w, err := model.RealizeWeights(seed)
	if err != nil {
		t.Fatal(err)
	}
	wantWeights, wantData := cnn.WeightsChecksum(w), featurestore.DataChecksum(tables.ImageRows)

	for _, catalogued := range []bool{false, true} {
		spec := tinySpec(t, 12) // the same generated content, privately owned
		spec.Seed = seed
		if catalogued {
			spec = spec.WithTables(tables)
		}
		id, err := Resolve(spec)
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		gotWeights, gotData, err := id.Sums()
		if err != nil || gotWeights != wantWeights || gotData != wantData {
			t.Fatalf("catalogued=%v: Sums = %q, %q, %v; want %q, %q", catalogued, gotWeights, gotData, err, wantWeights, wantData)
		}
		spec.Identity = id
		fp, ok := ShareFingerprint(spec)
		if !ok || fp.WeightsSum != wantWeights || fp.DataSum != wantData {
			t.Fatalf("catalogued=%v: fingerprint %+v ok=%v", catalogued, fp, ok)
		}
	}
	gotWeights, gotData, ok := memoizedSums("tiny-alexnet", seed, dataset)
	if !ok || gotWeights != wantWeights || gotData != wantData {
		t.Fatalf("memoizedSums = %q, %q, %v after a catalogued resolve", gotWeights, gotData, ok)
	}
	// Rows no catalog built have no name to be asked for by.
	if _, _, ok := memoizedSums("tiny-alexnet", seed, data.Spec{}); ok {
		t.Fatal("memoizedSums answered for uncatalogued rows")
	}
}

// TestStaleIdentityAndTablesAreNotUsed covers a spec that is copied and then
// changed: an Identity resolved before the change is rejected, and a catalog
// handle whose rows were replaced is dropped, so neither can address the
// store with another run's checksums.
func TestStaleIdentityAndTablesAreNotUsed(t *testing.T) {
	tables, err := data.NewCatalog().Get(data.Foods().WithRows(12))
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(t, 12).WithTables(tables)
	id, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Identity = id
	if _, ok := ShareFingerprint(spec); !ok {
		t.Fatal("the spec its identity was resolved from does not fingerprint")
	}

	other := tinySpec(t, 8)
	for name, change := range map[string]func(*Spec){
		"seed":   func(s *Spec) { s.Seed++ },
		"model":  func(s *Spec) { s.ModelName = "tiny-vgg16" },
		"layers": func(s *Spec) { s.NumLayers = 1 },
		"rows":   func(s *Spec) { s.StructRows, s.ImageRows = other.StructRows, other.ImageRows },
	} {
		changed := spec
		change(&changed)
		if _, err := Price(changed); err == nil || !strings.Contains(err.Error(), "changed after its Identity was resolved") {
			t.Errorf("%s changed under a resolved identity: Price error = %v", name, err)
		}
		if _, ok := ShareFingerprint(changed); ok {
			t.Errorf("%s changed under a resolved identity: still fingerprints", name)
		}
		if _, err := Run(changed); err == nil {
			t.Errorf("%s changed under a resolved identity: Run succeeded", name)
		}
	}

	// Without an identity the changed spec resolves afresh; with other rows it
	// must hash those rows, not reuse the catalog entry's checksum.
	replaced := spec
	replaced.Identity = nil
	replaced.StructRows, replaced.ImageRows = other.StructRows, other.ImageRows
	fp, ok := ShareFingerprint(replaced)
	if want := featurestore.DataChecksum(other.ImageRows); !ok || fp.DataSum != want || fp.DataSum == tables.DataSum() {
		t.Errorf("rows replaced after WithTables: fingerprint data sum %q (ok=%v), want %q", fp.DataSum, ok, want)
	}
}

// gatedPreparer is a fresh preparer installed for one test, with a fresh
// sums memo so that every Sums of the test misses; both are restored at
// cleanup. Its realize counts its calls and blocks each of them until
// release is closed, signalling started on the first; with fail set, each
// call then fails with it.
type gatedPreparer struct {
	*preparer
	realized                 atomic.Int32
	started, release, joined chan struct{}
}

func withPreparer(t *testing.T, fail error) *gatedPreparer {
	t.Helper()
	g := &gatedPreparer{preparer: newPreparer(),
		started: make(chan struct{}), release: make(chan struct{}), joined: make(chan struct{})}
	g.preparer.joined = g.joined
	g.realize = func(m *cnn.Model, seed int64) (*cnn.Weights, error) {
		if g.realized.Add(1) == 1 {
			close(g.started)
		}
		<-g.release
		if fail != nil {
			return nil, fail
		}
		return m.RealizeWeights(seed)
	}
	oldPrep, oldMemo := preparations, sumsMemo
	preparations, sumsMemo = g.preparer, newSumMemo(sumsMemoCap)
	t.Cleanup(func() { preparations, sumsMemo = oldPrep, oldMemo })
	return g
}

// inFlight reports how many preparations are in flight.
func (pr *preparer) inFlight() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.flights)
}

// concurrentSums resolves n fresh Identities of spec and calls Sums on all of
// them at once: the first call's preparation is held open until the other
// n-1 have joined it, then released.
func (g *gatedPreparer) concurrentSums(t *testing.T, spec Spec, n int) ([]*Identity, []error) {
	t.Helper()
	ids := make([]*Identity, n)
	for i := range ids {
		id, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	sums := func(i int) {
		defer wg.Done()
		_, _, errs[i] = ids[i].Sums()
	}
	wg.Add(n)
	go sums(0)
	<-g.started // the flight is registered: every later Sums joins it
	for i := 1; i < n; i++ {
		go sums(i)
	}
	for i := 1; i < n; i++ {
		<-g.joined
	}
	close(g.release)
	wg.Wait()
	return ids, errs
}

// TestPreparationFlight holds one (model, seed)'s preparation open until
// every concurrent Sums of it has joined: the weights are realized once, and
// every Identity gets the same sums and borrows the very same weights, so the
// run that leads a share group realizes nothing more. Nothing stays in flight
// afterwards.
func TestPreparationFlight(t *testing.T) {
	const callers = 6
	g := withPreparer(t, nil)
	spec := tinySpec(t, 8)
	spec.Seed = 4711
	ids, errs := g.concurrentSums(t, spec, callers)
	if n := g.realized.Load(); n != 1 {
		t.Fatalf("%d realizations for %d concurrent Sums, want 1", n, callers)
	}
	model, err := cnn.ByName(spec.ModelName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := model.RealizeWeights(spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantWeights := cnn.WeightsChecksum(w)
	first, err := ids[0].Weights()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		weightsSum, dataSum, err := id.Sums()
		if errs[i] != nil || err != nil || weightsSum != wantWeights || dataSum != featurestore.DataChecksum(spec.ImageRows) {
			t.Fatalf("caller %d: Sums = %q, %q, %v (first call %v); want weights %q", i, weightsSum, dataSum, err, errs[i], wantWeights)
		}
		if got, err := id.Weights(); err != nil || got != first {
			t.Errorf("caller %d borrows weights %p, %v; caller 0 borrows %p", i, got, err, first)
		}
	}
	if n := g.inFlight(); n != 0 {
		t.Errorf("%d preparations still in flight", n)
	}
}

// TestPreparationFailureNotRemembered fails a preparation that several Sums
// wait on: each of them gets the error, nothing stays in flight, and the next
// Sums of the same (model, seed) prepares again and succeeds.
func TestPreparationFailureNotRemembered(t *testing.T) {
	const callers = 4
	boom := errors.New("realize failed")
	g := withPreparer(t, boom)
	spec := tinySpec(t, 8)
	spec.Seed = 4712
	_, errs := g.concurrentSums(t, spec, callers)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: Sums error %v, want %v", i, err, boom)
		}
	}
	if n := g.realized.Load(); n != 1 {
		t.Fatalf("%d realizations for %d concurrent Sums, want 1", n, callers)
	}
	if n := g.inFlight(); n != 0 {
		t.Fatalf("%d preparations still in flight after a failure", n)
	}

	var retried atomic.Int32
	g.realize = func(m *cnn.Model, seed int64) (*cnn.Weights, error) {
		retried.Add(1)
		return m.RealizeWeights(seed)
	}
	id, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if weightsSum, _, err := id.Sums(); err != nil || weightsSum == "" {
		t.Fatalf("Sums after a failed preparation = %q, %v; want a retry that succeeds", weightsSum, err)
	}
	if n := retried.Load(); n != 1 {
		t.Fatalf("the retry realized %d times, want 1", n)
	}
}
