package core

import (
	"fmt"

	"repro/internal/data"
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
	attached   []bool       // plan.Attachable's answer, indexed by plan step
	steps      []*stepCache // indexed by plan step; nil = execute live
	loaded     int          // durable-store entries loaded
}

// loadRunCache probes the spec's feature store and share handoff for the
// run's compiled plan under plan.Attachable's rule, loading every entry it
// asks for and keeping the hits for the steps that attach. A fully-warm run
// therefore loads feature entries only (in the store the carries are about
// three times their size), and a partial hit still resumes from the carried
// raw tensor. Per entry, the in-memory source wins over the store. Returns
// nil when the spec has neither store nor source/sink, or the model's
// weights cannot be realized (then no cache identity exists).
func loadRunCache(spec *Spec, id *Identity) *runCache {
	if spec.FeatureStore == nil && spec.FeatureSource == nil && spec.FeatureSink == nil {
		return nil
	}
	weightsSum, dataSum, err := id.Sums()
	if err != nil {
		return nil
	}
	rc := &runCache{
		store:      spec.FeatureStore,
		source:     spec.FeatureSource,
		sink:       spec.FeatureSink,
		model:      id.Model.Name,
		weightsSum: weightsSum,
		dataSum:    dataSum,
	}
	type hit struct {
		rows   map[int64]*tensor.Tensor
		shared bool
	}
	hits := make(map[featurestore.Key]hit)
	rc.attached = id.Plan.Attachable(func(layer int, carry bool) bool {
		k := rc.key(layer, entryKind(carry))
		rows, shared := rc.load(k)
		if rows != nil {
			hits[k] = hit{rows, shared}
		}
		return rows != nil
	})
	rc.steps = make([]*stepCache, len(id.Plan.Steps))
	for si, step := range id.Plan.Steps {
		if !rc.attached[si] {
			continue
		}
		sc := &stepCache{feats: make([]map[int64]*tensor.Tensor, len(step.Emits))}
		for ei, em := range step.Emits {
			h := hits[rc.key(em.LayerIndex, featurestore.Feature)]
			sc.feats[ei], sc.shared = h.rows, sc.shared || h.shared
		}
		// The carry was asked for, so hit, only when the next step runs live.
		last := step.Emits[len(step.Emits)-1].LayerIndex
		if h, ok := hits[rc.key(last, featurestore.RawCarry)]; ok {
			sc.raw, sc.shared = h.rows, sc.shared || h.shared
		}
		rc.steps[si] = sc
	}
	return rc
}

// entryKind is the store entry plan.Attachable's predicate asks about.
func entryKind(carry bool) featurestore.EntryKind {
	if carry {
		return featurestore.RawCarry
	}
	return featurestore.Feature
}

// StoredEntries is the predicate plan.Attachable asks, answered from
// store.Contains for the workload (model, seed, dataset) a run in this
// process resolved: what a /run of it would find, probed without loading an
// entry or touching recency. nil, which a what-if reads as cold, when there
// is no store or no run memoized the workload's content address.
func StoredEntries(store *featurestore.Store, model string, seed int64, dataset data.Spec) func(layerIndex int, carry bool) bool {
	if store == nil {
		return nil
	}
	weightsSum, dataSum, ok := memoizedSums(model, seed, dataset)
	if !ok {
		return nil
	}
	return func(layer int, carry bool) bool {
		return store.Contains(featurestore.Key{Model: model, WeightsSum: weightsSum, DataSum: dataSum,
			LayerIndex: layer, Kind: entryKind(carry)})
	}
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
// group's freshly computed tables; shared reports such a hit), then the
// durable store.
func (rc *runCache) load(k featurestore.Key) (rows map[int64]*tensor.Tensor, shared bool) {
	if rc.source != nil {
		if rows, ok := rc.source.Lookup(k); ok {
			if m := indexRows(rows); m != nil {
				return m, true
			}
		}
	}
	if rc.store == nil {
		return nil, false
	}
	stored, ok, err := rc.store.Get(k)
	if err != nil || !ok {
		return nil, false
	}
	m := indexRows(stored)
	if m != nil {
		rc.loaded++
	}
	return m, false
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
	return rc != nil && rc.attached[i]
}

// sharedStep reports whether plan step i attaches from the in-memory share
// handoff (implies cached(i)). Safe on a nil receiver.
func (rc *runCache) sharedStep(i int) bool {
	return rc.cached(i) && rc.steps[i].shared
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
