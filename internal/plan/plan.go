// Package plan defines the logical execution plans of the feature-transfer
// workload (Section 4.2.1, Figure 5): Lazy (the de-facto manual approach),
// Eager (materialize all layers in one go), their join-reordered variants,
// and Vista's new Staged plan, plus the pre-materialization variant of
// Appendix B. A plan compiles into a sequence of inference Steps shared by
// the real executor (internal/core) and the analytical simulator
// (internal/sim).
package plan

import (
	"fmt"
	"slices"

	"repro/internal/cnn"
)

// Kind enumerates the logical plans of Figure 5.
type Kind int

// Logical plans. Staged is the zero value: it is Vista's plan, so an
// unspecified Kind means "let Vista do its thing".
const (
	// Staged splits partial inference across the layers of L, emitting each
	// layer and carrying the raw intermediate forward — Figure 5(E),
	// Vista's plan.
	Staged Kind = iota
	// Lazy materializes each feature layer independently from raw images —
	// Figure 5(A), the current dominant practice.
	Lazy
	// Eager materializes all |L| layers in a single inference pass —
	// Figure 5(C).
	Eager
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Lazy:
		return "lazy"
	case Eager:
		return "eager"
	case Staged:
		return "staged"
	}
	return fmt.Sprintf("plan(%d)", int(k))
}

// ParseKind is the inverse of Kind.String: it maps "staged", "lazy" or
// "eager" onto its plan.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{Staged, Lazy, Eager} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown plan %q", s)
}

// JoinPlacement says whether CNN inference runs after or before the
// structured join (Section 5.3: "Eager or Staged combined with inference
// After Join (AJ) or Before Join (BJ)"). AJ joins Tstr with Timg first —
// cheaper shuffles, since raw images are smaller than feature layers
// (Section 4.2.1's join-reordering argument); Figure 5's -Reordered plans
// and Staged use it.
type JoinPlacement int

// Join placements.
const (
	// AfterJoin (AJ): join first, then run inference on the joined table.
	AfterJoin JoinPlacement = iota
	// BeforeJoin (BJ): run inference on Timg, then join feature tables
	// with Tstr.
	BeforeJoin
)

// String implements fmt.Stringer.
func (p JoinPlacement) String() string {
	if p == BeforeJoin {
		return "BJ"
	}
	return "AJ"
}

// Emit is one feature layer materialized by a step.
type Emit struct {
	// LayerName is the roster feature-layer label.
	LayerName string
	// LayerIndex is the model layer index.
	LayerIndex int
	// FeatureDim is the flattened post-pooling feature length.
	FeatureDim int
}

// Step is one inference pass over the data: partial inference from model
// layer From through the highest emitted/kept layer, materializing the Emits
// and optionally keeping the raw top tensor for the next step.
type Step struct {
	// From is the first model layer applied (0 = from raw images).
	From int
	// FromImage is true when the step consumes raw images; false when it
	// consumes the previous step's raw intermediate tensor.
	FromImage bool
	// Emits are the feature layers this pass materializes, ascending.
	Emits []Emit
	// KeepRaw keeps the unpooled output of the last layer for the next
	// step (Staged only).
	KeepRaw bool
	// FLOPsPerImage is the partial-inference cost of this pass for one
	// example.
	FLOPsPerImage int64
}

// Plan is a compiled logical plan: an ordered list of inference steps plus
// the join placement. Downstream training on each emitted layer happens as
// soon as that layer is materialized (Figure 5's M nodes).
type Plan struct {
	Kind      Kind
	Placement JoinPlacement
	// Layers are the selected feature layers, bottom-to-top (the paper's
	// L, top |L| of the model's roster list).
	Layers []cnn.LayerStat
	Steps  []Step
	// PreMaterializedBase, when >= 0, is the index into Layers of a base
	// layer assumed already materialized (Appendix B); steps then start
	// from it instead of raw images.
	PreMaterializedBase int
}

// Options modifies compilation.
type Options struct {
	// PreMaterializeBase enables the Appendix B variant: the bottom-most
	// selected layer is read pre-materialized instead of computed from
	// images.
	PreMaterializeBase bool
}

// Compile builds the plan of the given kind over the top |L| = k feature
// layers of the model the stats describe (cnn.ComputeStats).
func Compile(kind Kind, placement JoinPlacement, stats *cnn.Stats, k int, opts Options) (*Plan, error) {
	layers, err := stats.TopLayerStats(k)
	if err != nil {
		return nil, err
	}
	p := &Plan{Kind: kind, Placement: placement, Layers: layers, PreMaterializedBase: -1}

	start := 0 // model layer the pipeline starts at
	firstFromImage := true
	if opts.PreMaterializeBase {
		p.PreMaterializedBase = 0
		start = layers[0].LayerIndex + 1
		firstFromImage = false
		layers = layers[1:]
		if len(layers) == 0 {
			return p, nil // only the base layer selected; nothing to compute
		}
	}

	emit := func(l cnn.LayerStat) Emit {
		return Emit{LayerName: l.Name, LayerIndex: l.LayerIndex, FeatureDim: l.FeatureDim}
	}

	switch kind {
	case Lazy:
		// One independent pass per layer, each from the pipeline start.
		for _, l := range layers {
			flops := cumFLOPsFrom(stats, start, l)
			p.Steps = append(p.Steps, Step{
				From: start, FromImage: firstFromImage,
				Emits:         []Emit{emit(l)},
				FLOPsPerImage: flops,
			})
		}
	case Eager:
		// A single pass emitting every layer.
		var emits []Emit
		for _, l := range layers {
			emits = append(emits, emit(l))
		}
		top := layers[len(layers)-1]
		p.Steps = append(p.Steps, Step{
			From: start, FromImage: firstFromImage,
			Emits:         emits,
			FLOPsPerImage: cumFLOPsFrom(stats, start, top),
		})
	case Staged:
		// One pass per layer, each continuing from the previous layer's
		// raw tensor.
		cur := start
		fromImage := firstFromImage
		for i, l := range layers {
			p.Steps = append(p.Steps, Step{
				From: cur, FromImage: fromImage,
				Emits:         []Emit{emit(l)},
				KeepRaw:       i+1 < len(layers),
				FLOPsPerImage: cumFLOPsFrom(stats, cur, l),
			})
			cur = l.LayerIndex + 1
			fromImage = false
		}
	default:
		return nil, fmt.Errorf("plan: unknown kind %d", int(kind))
	}
	return p, nil
}

// cumFLOPsFrom approximates partial-inference FLOPs from model layer `from`
// through feature layer l using the stats' cumulative counts. When from is 0
// this is exact (CumFLOPs); otherwise it is the difference of cumulative
// costs at the bounding feature layers.
func cumFLOPsFrom(stats *cnn.Stats, from int, l cnn.LayerStat) int64 {
	if from == 0 {
		return l.CumFLOPs
	}
	// Find the feature layer immediately below `from` and subtract.
	var below int64
	for _, fl := range stats.FeatureLayers {
		if fl.LayerIndex < from && fl.CumFLOPs > below {
			below = fl.CumFLOPs
		}
	}
	return l.CumFLOPs - below
}

// TotalInferenceFLOPs returns the plan's total per-example inference cost —
// the quantity the Staged plan minimizes (Section 4.2.1).
func (p *Plan) TotalInferenceFLOPs() int64 {
	var total int64
	for _, s := range p.Steps {
		total += s.FLOPsPerImage
	}
	return total
}

// Name renders the plan as the paper writes it, e.g. "Staged/AJ".
func (p *Plan) Name() string {
	name := fmt.Sprintf("%s/%s", titleCase(p.Kind.String()), p.Placement)
	if p.PreMaterializedBase >= 0 {
		name += "+Pre-mat"
	}
	return name
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return string(s[0]-'a'+'A') + s[1:]
}

// Attachable decides which steps a run serves from stored features instead
// of inference; it is the one attach rule the executor, the simulator and
// what-if probes share. has reports whether a store holds one entry: the
// feature vectors emitted at model layer layerIndex or, when carry is set,
// the raw tensor a Staged step keeps there. Steps resolve back to front. A
// step attaches iff every emitted layer is held and, when it keeps a raw
// carry, the next step attaches too or the carry is held: the carry is the
// next step's input and nothing else reads it, so it is asked for only when
// that step runs live. has is called in exactly this order and not again
// after a step's first missing emit, so a predicate that loads entries reads
// only what the run may use. A nil has attaches nothing.
func (p *Plan) Attachable(has func(layerIndex int, carry bool) bool) []bool {
	attached := make([]bool, len(p.Steps))
	if has == nil {
		return attached
	}
	nextLive := false // nothing consumes the last step's output tensor
	for si := len(p.Steps) - 1; si >= 0; si-- {
		step := p.Steps[si]
		ok := true
		for _, em := range step.Emits {
			if !has(em.LayerIndex, false) {
				ok = false
				break
			}
		}
		if ok && step.KeepRaw && nextLive {
			ok = has(step.Emits[len(step.Emits)-1].LayerIndex, true)
		}
		attached[si] = ok
		nextLive = !ok
	}
	return attached
}

// FullyCached reports whether attached, Attachable's answer for p, serves
// the whole run from stored features: every step attaches and no
// pre-materialized base is read, so the run needs no images and no CNN.
func (p *Plan) FullyCached(attached []bool) bool {
	return p.PreMaterializedBase < 0 && len(attached) > 0 && !slices.Contains(attached, false)
}

// AttachedLayers counts the selected layers attached steps emit.
func (p *Plan) AttachedLayers(attached []bool) int {
	n := 0
	for i, a := range attached {
		if a {
			n += len(p.Steps[i].Emits)
		}
	}
	return n
}
