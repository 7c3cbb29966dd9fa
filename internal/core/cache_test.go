package core

import (
	"strings"
	"testing"

	"repro/internal/featurestore"
	"repro/internal/memory"
	"repro/internal/obs"
)

// TestRunFeatureStoreWarmReuse drives the full cross-run caching path: a
// cold run publishes every stage's features, a warm run of the same spec
// attaches all of them — zero CNN FLOPs, identical downstream metrics, no DL
// replica memory.
func TestRunFeatureStoreWarmReuse(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := tinySpec(t, 60)
	spec.FeatureStore = store

	cold, err := Run(spec)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	nSteps := len(cold.Plan.Steps)
	if !cold.Cache.Enabled || cold.Cache.StagesExecuted != nSteps || cold.Cache.StagesFromCache != 0 {
		t.Fatalf("cold cache report: %+v", cold.Cache)
	}
	if cold.Cache.EntriesStored == 0 {
		t.Fatalf("cold run published nothing: %+v", cold.Cache)
	}

	warm, err := Run(spec)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	if warm.Cache.StagesFromCache != nSteps || warm.Cache.StagesExecuted != 0 {
		t.Fatalf("warm cache report: %+v", warm.Cache)
	}
	if warm.Cache.WeightsSum != cold.Cache.WeightsSum || warm.Cache.DataSum != cold.Cache.DataSum {
		t.Fatal("content address changed between identical runs")
	}

	// Warm runs execute zero CNN FLOPs: the runs differ by exactly the
	// plan's inference cost (training FLOPs are deterministic).
	wantDelta := int64(len(spec.ImageRows)) * cold.Plan.TotalInferenceFLOPs()
	if delta := cold.Counters.FLOPs - warm.Counters.FLOPs; delta != wantDelta {
		t.Fatalf("FLOP delta %d, want exactly %d (rows × plan inference FLOPs)", delta, wantDelta)
	}

	// Cached features are byte-identical, so every metric reproduces.
	if len(warm.Layers) != len(cold.Layers) {
		t.Fatalf("layer count changed: %d vs %d", len(warm.Layers), len(cold.Layers))
	}
	for i := range warm.Layers {
		if warm.Layers[i].Train != cold.Layers[i].Train || warm.Layers[i].Test != cold.Layers[i].Test {
			t.Fatalf("layer %s metrics diverged: warm %+v/%+v cold %+v/%+v",
				warm.Layers[i].LayerName, warm.Layers[i].Train, warm.Layers[i].Test,
				cold.Layers[i].Train, cold.Layers[i].Test)
		}
	}

	// Fully-warm runs hold no CNN replicas in DL Execution Memory and time
	// "cache:" stages instead of "infer:" ones.
	if warm.Decision.MemDL != 0 {
		t.Fatalf("warm decision reserves %d bytes of DL memory", warm.Decision.MemDL)
	}
	var cacheStages, inferStages int
	for _, sp := range warm.Trace.Children() {
		switch {
		case strings.HasPrefix(sp.Name(), "cache:"):
			cacheStages++
		case strings.HasPrefix(sp.Name(), "infer:"):
			inferStages++
		}
	}
	if cacheStages != nSteps || inferStages != 0 {
		t.Fatalf("warm timings: %d cache / %d infer stages, want %d/0", cacheStages, inferStages, nSteps)
	}
}

// TestRunWarmNeedsNoImagesOrSession pins what a run needs of the image
// payloads and the CNN: a fully-warm run charges no node's DL pool and
// ingests the image table without its payloads, while a run with one live
// inference step opens a session and ingests them.
func TestRunWarmNeedsNoImagesOrSession(t *testing.T) {
	// run executes spec against a fresh registry and returns the run, the
	// largest DL pool peak over its nodes, and its ingest span's bytes.
	run := func(spec Spec) (*Result, float64, int64) {
		t.Helper()
		reg := obs.NewRegistry()
		spec.Metrics = reg
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("Run (|L|=%d): %v", spec.NumLayers, err)
		}
		var dlPeak float64
		nodes := 0
		for _, s := range reg.Samples(func(name string) bool { return name == "vista_pool_peak_bytes" }) {
			if strings.Contains(s.Labels, `pool="dl"`) {
				dlPeak = max(dlPeak, s.Value)
				nodes++
			}
		}
		if nodes != spec.Nodes {
			t.Fatalf("found %d DL pool series, want one per node (%d)", nodes, spec.Nodes)
		}
		ingested, ok := stageSpan(res.Trace, "ingest").Attr("bytes")
		if !ok {
			t.Fatal("ingest span carries no bytes")
		}
		return res, dlPeak, ingested
	}
	newStore := func() *featurestore.Store {
		t.Helper()
		store, err := featurestore.Open(t.TempDir(), memory.MB(256))
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return store
	}
	spec := tinySpec(t, 60)
	var payloads int64
	for _, r := range spec.ImageRows {
		payloads += int64(len(r.Image))
	}
	if payloads == 0 {
		t.Fatal("image rows carry no payloads")
	}

	spec.FeatureStore = newStore()
	_, coldPeak, coldIngest := run(spec)
	if coldPeak <= 0 {
		t.Fatal("cold run charged no DL pool")
	}
	warm, warmPeak, warmIngest := run(spec)
	if warm.Cache.StagesExecuted != 0 {
		t.Fatalf("warm run executed %d stages", warm.Cache.StagesExecuted)
	}
	if warmPeak != 0 {
		t.Errorf("fully-warm run charged %.0f bytes to a DL pool, want none", warmPeak)
	}
	if got := coldIngest - warmIngest; got != payloads {
		t.Errorf("warm ingest is %d bytes lighter than cold, want the image payloads' %d", got, payloads)
	}

	// |L|=1 stores fc8 alone; |L|=2 attaches fc8 and runs fc7 live from
	// the images.
	spec.FeatureStore = newStore()
	spec.NumLayers = 1
	run(spec)
	spec.NumLayers = 2
	partial, partialPeak, partialIngest := run(spec)
	if partial.Cache.StagesExecuted != 1 || partial.Cache.StagesFromCache != 1 {
		t.Fatalf("partial run cache report: %+v", partial.Cache)
	}
	if partialPeak <= 0 {
		t.Error("partially-warm run opened no DL session")
	}
	if partialIngest != coldIngest {
		t.Errorf("partially-warm run ingested %d bytes, want the cold run's %d (payloads included)", partialIngest, coldIngest)
	}
}

// TestRunFeatureStoreKeyedByWeights asserts the content address pins the
// weights: a different realization seed must not reuse cached features.
func TestRunFeatureStoreKeyedByWeights(t *testing.T) {
	store, err := featurestore.Open(t.TempDir(), memory.MB(256))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := tinySpec(t, 40)
	spec.NumLayers = 2
	spec.FeatureStore = store
	if _, err := Run(spec); err != nil {
		t.Fatalf("cold Run: %v", err)
	}

	spec.Seed = 99 // different weights
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("re-seeded Run: %v", err)
	}
	if res.Cache.StagesFromCache != 0 || res.Cache.StagesExecuted != len(res.Plan.Steps) {
		t.Fatalf("cache hit across different weights: %+v", res.Cache)
	}
}

// TestLoadRunCacheBackToFront pins the resolution rule of loadRunCache over a
// three-step Staged chain (fc6 → fc7 → fc8; the first two keep a raw carry):
// a step attaches iff its features hit and either its successor attaches or
// its raw carry hits, and a carry is read only when the successor runs live.
// Each case copies a subset of one cold run's entries into a fresh store,
// probes it, then runs over it and compares the trained models with the cold
// run's.
func TestLoadRunCacheBackToFront(t *testing.T) {
	full, err := featurestore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := tinySpec(t, 40)
	spec.FeatureStore = full
	cold, err := Run(spec)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	if len(cold.Plan.Steps) != 3 {
		t.Fatalf("plan has %d steps, want 3", len(cold.Plan.Steps))
	}
	key := func(step int, kind featurestore.EntryKind) featurestore.Key {
		return featurestore.Key{Model: spec.ModelName, WeightsSum: cold.Cache.WeightsSum,
			DataSum: cold.Cache.DataSum, LayerIndex: cold.Plan.Steps[step].Emits[0].LayerIndex, Kind: kind}
	}
	type entry struct {
		step int
		kind featurestore.EntryKind
	}
	feat := func(step int) entry { return entry{step, featurestore.Feature} }
	raw := func(step int) entry { return entry{step, featurestore.RawCarry} }

	cases := []struct {
		name     string
		present  []entry
		attached [3]bool // per step
		carried  [3]bool // per step: raw carry loaded
		loaded   int     // store entries read by the probe
	}{
		{"all warm reads no carry",
			[]entry{feat(0), raw(0), feat(1), raw(1), feat(2)},
			[3]bool{true, true, true}, [3]bool{}, 3},
		{"all warm with every carry evicted",
			[]entry{feat(0), feat(1), feat(2)},
			[3]bool{true, true, true}, [3]bool{}, 3},
		{"prefix hit resumes from the last carry only",
			[]entry{feat(0), raw(0), feat(1), raw(1)},
			[3]bool{true, true, false}, [3]bool{false, true, false}, 3},
		{"features hit, successor live, carry evicted: cascades to live",
			[]entry{feat(0), raw(0), feat(1)},
			[3]bool{true, false, false}, [3]bool{true, false, false}, 3},
		{"cascade reaches the bottom when no carry survives",
			[]entry{feat(0), feat(1)},
			[3]bool{false, false, false}, [3]bool{}, 2},
		{"bottom evicted, top attaches without carries",
			[]entry{feat(1), raw(1), feat(2)},
			[3]bool{false, true, true}, [3]bool{}, 2},
		{"cold",
			nil,
			[3]bool{false, false, false}, [3]bool{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := featurestore.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for _, e := range tc.present {
				rows, ok, err := full.Get(key(e.step, e.kind))
				if err != nil || !ok {
					t.Fatalf("cold run left no %v entry for step %d (err %v)", e.kind, e.step, err)
				}
				if err := store.Put(key(e.step, e.kind), rows); err != nil {
					t.Fatalf("Put: %v", err)
				}
			}
			spec := spec
			spec.FeatureStore = store
			spec.SpillDir = t.TempDir()
			id, err := Resolve(spec)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			rc := loadRunCache(&spec, id)
			for i := range rc.steps {
				if got := rc.steps[i] != nil; got != tc.attached[i] {
					t.Errorf("step %d attached = %v, want %v", i, got, tc.attached[i])
				}
				if got := rc.steps[i] != nil && rc.steps[i].raw != nil; got != tc.carried[i] {
					t.Errorf("step %d raw carry loaded = %v, want %v", i, got, tc.carried[i])
				}
			}
			if rc.loaded != tc.loaded {
				t.Errorf("probe loaded %d entries, want %d", rc.loaded, tc.loaded)
			}

			res, err := Run(spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantCached := 0
			for _, a := range tc.attached {
				if a {
					wantCached++
				}
			}
			if res.Cache.StagesFromCache != wantCached || res.Cache.StagesExecuted != 3-wantCached {
				t.Errorf("cache report %+v, want %d attached / %d executed", res.Cache, wantCached, 3-wantCached)
			}
			for i := range res.Layers {
				if res.Layers[i].Train != cold.Layers[i].Train || res.Layers[i].Test != cold.Layers[i].Test {
					t.Errorf("layer %s metrics diverged from the cold run: %+v/%+v vs %+v/%+v",
						res.Layers[i].LayerName, res.Layers[i].Train, res.Layers[i].Test,
						cold.Layers[i].Train, cold.Layers[i].Test)
				}
			}
		})
	}
}
