package lifecycle

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/ml"
	"repro/internal/share"
)

// layerOutcome is what a run reports per explored layer — the part of a /run
// response that must not depend on where the run's rows or features came from.
type layerOutcome struct {
	Layer       string
	FeatureDim  int
	Train, Test ml.Metrics
}

func layerOutcomes(res *core.Result) []layerOutcome {
	out := make([]layerOutcome, len(res.Layers))
	for i, l := range res.Layers {
		out[i] = layerOutcome{l.LayerName, l.FeatureDim, l.Train, l.Test}
	}
	return out
}

// TestConcurrentRunsShareOneCatalogEntry is the immutability contract of
// data.Catalog under the run lifecycle: eight concurrent runs over the one
// shared entry — fully warm, cold, and racing to be cold on the same
// fingerprint; through a sharing coordinator and without one — report exactly
// what solo runs over private data.Generate copies report, and leave the
// entry's rows bit-for-bit as generated. Run it under -race: a run that wrote
// through the shared rows would race with its seven siblings' reads.
func TestConcurrentRunsShareOneCatalogEntry(t *testing.T) {
	const rows = 24
	dataSpec := data.Foods().WithRows(rows)
	tables, err := data.NewCatalog().Get(dataSpec)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Spec{
		Nodes: 2, CoresPerNode: 2, MemPerNode: memory.GB(32),
		SystemKind: memory.SparkLike,
		ModelName:  "tiny-alexnet", NumLayers: 3,
		Downstream: core.DefaultDownstream(),
	}
	shared := func(seed int64, store *featurestore.Store) core.Spec {
		s := base.WithTables(tables)
		s.Seed, s.FeatureStore = seed, store
		return s
	}

	// The reference: every seed once, solo, no store, over rows nobody else
	// holds.
	const warmSeed, coldSeed, sharedColdSeed = 11, 12, 13
	want := make(map[int64][]layerOutcome)
	for _, seed := range []int64{warmSeed, coldSeed, sharedColdSeed} {
		s := base
		if s.StructRows, s.ImageRows, err = data.Generate(dataSpec); err != nil {
			t.Fatal(err)
		}
		s.Seed = seed
		out := (&Runner{}).Do(context.Background(), s, "foods")
		if out.Kind != Completed {
			t.Fatalf("reference run seed %d: %+v", seed, out)
		}
		want[seed] = layerOutcomes(out.Result)
	}

	store, err := featurestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	plain := &Runner{}
	if out := plain.Do(context.Background(), shared(warmSeed, store), "foods"); out.Kind != Completed {
		t.Fatalf("pre-warm run: %+v", out)
	}
	coord, err := share.New(share.Config{Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sharing := &Runner{Share: coord}

	runs := []struct {
		runner *Runner
		seed   int64
	}{
		{plain, warmSeed}, {plain, warmSeed},
		{plain, coldSeed}, {plain, coldSeed},
		{sharing, warmSeed}, {sharing, warmSeed},
		{sharing, sharedColdSeed}, {sharing, sharedColdSeed},
	}
	outs := make([]Outcome, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func(i int, runner *Runner, seed int64) {
			defer wg.Done()
			outs[i] = runner.Do(context.Background(), shared(seed, store), "foods")
		}(i, r.runner, r.seed)
	}
	wg.Wait()

	for i, out := range outs {
		if out.Kind != Completed {
			t.Errorf("run %d (seed %d): %+v", i, runs[i].seed, out)
			continue
		}
		if got := layerOutcomes(out.Result); !reflect.DeepEqual(got, want[runs[i].seed]) {
			t.Errorf("run %d (seed %d, cache %+v) reported %+v, the private-copy run %+v",
				i, runs[i].seed, out.Result.Cache, got, want[runs[i].seed])
		}
		if runs[i].seed == warmSeed && runs[i].runner == plain &&
			(out.Result.Cache.StagesExecuted != 0 || out.Result.Cache.StagesFromCache != 3) {
			t.Errorf("run %d over pre-warmed features executed stages: %+v", i, out.Result.Cache)
		}
	}
	if s := coord.Stats(); s.OpenGroups != 0 || s.WaitingMembers != 0 || s.LiveGroups != 0 {
		t.Errorf("share coordinator not drained: %+v", s)
	}

	if sum := featurestore.DataChecksum(tables.ImageRows); sum != tables.DataSum() {
		t.Errorf("image rows changed under sharing: checksum %s, entry says %s", sum, tables.DataSum())
	}
	structRows, imageRows, err := data.Generate(dataSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tables.StructRows, structRows) || !reflect.DeepEqual(tables.ImageRows, imageRows) {
		t.Error("the catalog entry's rows no longer equal a fresh generation")
	}
}
