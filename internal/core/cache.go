package core

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/featurestore"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// This file connects the executor to internal/featurestore: before
// scheduling a plan, Run probes the store for every step's outputs; steps
// fully covered by materialized features are replaced with a cache attach
// (zero CNN FLOPs), and steps that do run publish their features back for
// future runs — DeepLens-style cross-run feature reuse on top of the Staged
// executor. The same probe consults the spec's in-memory FeatureSource (a
// sharing group's handoff) ahead of the durable store, and live steps fan
// their outputs into the FeatureSink, so multi-query shared inference rides
// the identical content-address machinery.

// stepCache holds the tensors one plan step would otherwise compute, fully
// loaded from the store at probe time and indexed by row ID. Loading up
// front makes the run immune to concurrent eviction from a shared store.
type stepCache struct {
	feats []map[int64]*tensor.Tensor // one map per emitted layer, in emit order
	raw   map[int64]*tensor.Tensor   // staged raw carry (nil unless the next step runs live)
	// shared marks a step served (at least partly) from the in-memory
	// FeatureSource rather than the durable store; its attach is labeled
	// "shared:<layer>" instead of "cache:<layer>".
	shared bool
}

// runCache is one run's view of materialized features: the content-address
// components shared by all of the run's keys, and which plan steps can be
// served without running inference — from the durable feature store, the
// in-memory share handoff, or both.
type runCache struct {
	store      *featurestore.Store // nil = no durable store
	source     FeatureSource       // nil = no share handoff to read
	sink       FeatureSink         // nil = no share handoff to feed
	model      string
	weightsSum string
	dataSum    string
	steps      []*stepCache // indexed by plan step; nil = execute live
	loaded     int          // durable-store entries loaded
}

// loadRunCache probes the spec's feature store and share handoff for the
// run's compiled plan, resolving steps back to front. A step is attachable
// iff every emitted layer hits and either its successor is attachable too or
// its raw carry hits: the carry is the input of the next step's partial
// inference and nothing else reads it, so it is fetched only when that step
// will execute live. A fully-warm run therefore loads feature entries only
// (in the store the carries are about three times their size), a step whose
// features hit but whose needed carry is gone cascades to live, and a
// partial-prefix hit still resumes from the carried raw tensor. Per entry,
// the in-memory source wins over the store. Returns nil when the spec has
// neither store nor source/sink, or the model's weights cannot be realized
// (then no cache identity exists).
func loadRunCache(spec *Spec, id *Identity) *runCache {
	if spec.FeatureStore == nil && spec.FeatureSource == nil && spec.FeatureSink == nil {
		return nil
	}
	weightsSum, dataSum, err := id.Sums()
	if err != nil {
		return nil
	}
	steps := id.Plan.Steps
	rc := &runCache{
		store:      spec.FeatureStore,
		source:     spec.FeatureSource,
		sink:       spec.FeatureSink,
		model:      id.Model.Name,
		weightsSum: weightsSum,
		dataSum:    dataSum,
		steps:      make([]*stepCache, len(steps)),
	}
	nextLive := false // nothing consumes the last step's output tensor
	for si := len(steps) - 1; si >= 0; si-- {
		step := steps[si]
		sc := &stepCache{feats: make([]map[int64]*tensor.Tensor, len(step.Emits))}
		ok := true
		for ei, em := range step.Emits {
			if sc.feats[ei] = rc.load(sc, em.LayerIndex, featurestore.Feature); sc.feats[ei] == nil {
				ok = false
				break
			}
		}
		if ok && step.KeepRaw && nextLive {
			last := step.Emits[len(step.Emits)-1]
			if sc.raw = rc.load(sc, last.LayerIndex, featurestore.RawCarry); sc.raw == nil {
				ok = false
			}
		}
		if ok {
			rc.steps[si] = sc
		}
		nextLive = !ok
	}
	return rc
}

// key builds the content address for one of this run's layers.
func (rc *runCache) key(layer int, kind featurestore.EntryKind) featurestore.Key {
	return featurestore.Key{
		Model:      rc.model,
		WeightsSum: rc.weightsSum,
		DataSum:    rc.dataSum,
		LayerIndex: layer,
		Kind:       kind,
	}
}

// load fetches one entry and indexes its tensors by row ID; nil on a miss or
// a malformed entry. The in-memory source is probed first (its rows are this
// group's freshly computed tables; a hit marks the step shared), then the
// durable store.
func (rc *runCache) load(sc *stepCache, layer int, kind featurestore.EntryKind) map[int64]*tensor.Tensor {
	k := rc.key(layer, kind)
	if rc.source != nil {
		if rows, ok := rc.source.Lookup(k); ok {
			if m := indexRows(rows); m != nil {
				sc.shared = true
				return m
			}
		}
	}
	if rc.store == nil {
		return nil
	}
	rows, ok, err := rc.store.Get(k)
	if err != nil || !ok {
		return nil
	}
	m := indexRows(rows)
	if m != nil {
		rc.loaded++
	}
	return m
}

// indexRows maps one entry's rows by ID; nil when any row is malformed.
func indexRows(rows []dataflow.Row) map[int64]*tensor.Tensor {
	m := make(map[int64]*tensor.Tensor, len(rows))
	for i := range rows {
		if rows[i].Features == nil || rows[i].Features.Len() != 1 {
			return nil
		}
		m[rows[i].ID] = rows[i].Features.Get(0)
	}
	return m
}

// cached reports whether plan step i is served from materialized features.
// Safe on a nil receiver (no store or handoff configured).
func (rc *runCache) cached(i int) bool {
	return rc != nil && rc.steps[i] != nil
}

// sharedStep reports whether plan step i attaches from the in-memory share
// handoff (implies cached(i)). Safe on a nil receiver.
func (rc *runCache) sharedStep(i int) bool {
	return rc != nil && rc.steps[i] != nil && rc.steps[i].shared
}

// cachedEmits counts the selected layers served from the store — the value
// fed to optimizer.Inputs.CachedLayers so Equation 16's inputs shrink.
func (rc *runCache) cachedEmits(p *plan.Plan) int {
	if rc == nil {
		return 0
	}
	n := 0
	for i, step := range p.Steps {
		if rc.cached(i) {
			n += len(step.Emits)
		}
	}
	return n
}

// attachStep replaces one inference pass with a cache attach: each row gets
// the stored feature vectors (and raw carry) for its ID, in the same
// TensorList layout the live UDF would produce — and no CNN FLOPs. Steps
// served from a sharing group's handoff are labeled "shared:<layer>" so
// traces distinguish a leader's fan-out from a durable-store hit.
func (ex *executor) attachStep(name string, in *dataflow.Table, step plan.Step, sc *stepCache) (*dataflow.Table, error) {
	if err := ex.failStage("cache"); err != nil {
		return nil, err
	}
	label := "cache:"
	if sc.shared {
		label = "shared:"
	}
	sp := ex.stage(label + step.Emits[0].LayerName)
	defer sp.End()
	return ex.engine.MapPartitions(name, in, func(_ *dataflow.TaskContext, rows []dataflow.Row) ([]dataflow.Row, error) {
		out := make([]dataflow.Row, len(rows))
		for i := range rows {
			r := rows[i]
			features := tensor.NewTensorList()
			for _, m := range sc.feats {
				t, ok := m[r.ID]
				if !ok {
					return nil, fmt.Errorf("core: cached features lack row %d", r.ID)
				}
				features.Append(t)
			}
			if sc.raw != nil {
				t, ok := sc.raw[r.ID]
				if !ok {
					return nil, fmt.Errorf("core: cached raw carry lacks row %d", r.ID)
				}
				features.Append(t)
			}
			r.Features = features
			r.Image = nil
			out[i] = r
		}
		return out, nil
	})
}

// publishStep materializes a live step's outputs back to the store — one
// Feature entry per emitted layer, plus the raw carry for staged chains —
// and into the share handoff's sink when the run leads a sharing group.
// Best effort: a failed publish (e.g. driver memory pressure during Collect)
// never fails the run that produced the features.
func (ex *executor) publishStep(out *dataflow.Table, step plan.Step) {
	rc := ex.cache
	if rc == nil || (rc.store == nil && rc.sink == nil) {
		return
	}
	rows, err := ex.engine.Collect(out)
	if err != nil {
		return
	}
	slot := func(idx int) []dataflow.Row {
		pub := make([]dataflow.Row, len(rows))
		for i := range rows {
			if rows[i].Features == nil || rows[i].Features.Len() <= idx {
				return nil
			}
			pub[i] = dataflow.Row{ID: rows[i].ID, Features: tensor.NewTensorList(rows[i].Features.Get(idx))}
		}
		return pub
	}
	put := func(layer int, kind featurestore.EntryKind, idx int) {
		pub := slot(idx)
		if pub == nil {
			return
		}
		k := rc.key(layer, kind)
		if rc.sink != nil {
			rc.sink.Publish(k, pub)
		}
		if rc.store != nil && rc.store.Put(k, pub) == nil {
			ex.stored++
		}
	}
	for ei, em := range step.Emits {
		put(em.LayerIndex, featurestore.Feature, ei)
	}
	if step.KeepRaw {
		put(step.Emits[len(step.Emits)-1].LayerIndex, featurestore.RawCarry, len(step.Emits))
	}
}
