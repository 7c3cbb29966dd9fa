package plan

import (
	"fmt"
	"testing"

	"repro/internal/cnn"
)

func compile(t *testing.T, kind Kind, placement JoinPlacement, model string, k int, opts Options) *Plan {
	t.Helper()
	m, err := cnn.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cnn.ComputeStats(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(kind, placement, st, k, opts)
	if err != nil {
		t.Fatalf("Compile(%v): %v", kind, err)
	}
	return p
}

func TestLazyPlanShape(t *testing.T) {
	p := compile(t, Lazy, BeforeJoin, "alexnet", 4, Options{})
	if len(p.Steps) != 4 {
		t.Fatalf("lazy steps = %d, want 4", len(p.Steps))
	}
	for i, s := range p.Steps {
		if s.From != 0 || !s.FromImage {
			t.Errorf("step %d: lazy must start from raw images", i)
		}
		if len(s.Emits) != 1 {
			t.Errorf("step %d: lazy emits %d layers, want 1", i, len(s.Emits))
		}
		if s.KeepRaw {
			t.Errorf("step %d: lazy must not carry raw tensors", i)
		}
	}
	// Each later step repeats all earlier work: FLOPs strictly increase.
	for i := 1; i < 4; i++ {
		if p.Steps[i].FLOPsPerImage <= p.Steps[i-1].FLOPsPerImage {
			t.Errorf("lazy step %d FLOPs %d not above step %d's %d",
				i, p.Steps[i].FLOPsPerImage, i-1, p.Steps[i-1].FLOPsPerImage)
		}
	}
}

func TestEagerPlanShape(t *testing.T) {
	p := compile(t, Eager, BeforeJoin, "alexnet", 4, Options{})
	if len(p.Steps) != 1 {
		t.Fatalf("eager steps = %d, want 1", len(p.Steps))
	}
	s := p.Steps[0]
	if len(s.Emits) != 4 {
		t.Fatalf("eager emits = %d, want 4", len(s.Emits))
	}
	if s.Emits[0].LayerName != "conv5" || s.Emits[3].LayerName != "fc8" {
		t.Errorf("eager emit order wrong: %v", s.Emits)
	}
	if s.KeepRaw {
		t.Error("eager must not carry raw tensors")
	}
}

func TestStagedPlanShape(t *testing.T) {
	p := compile(t, Staged, AfterJoin, "resnet50", 5, Options{})
	if len(p.Steps) != 5 {
		t.Fatalf("staged steps = %d, want 5", len(p.Steps))
	}
	if !p.Steps[0].FromImage {
		t.Error("first staged step must read images")
	}
	for i, s := range p.Steps {
		if i > 0 && s.FromImage {
			t.Errorf("step %d: staged continuation must not re-read images", i)
		}
		wantKeep := i+1 < len(p.Steps)
		if s.KeepRaw != wantKeep {
			t.Errorf("step %d: KeepRaw = %v, want %v", i, s.KeepRaw, wantKeep)
		}
		if len(s.Emits) != 1 {
			t.Errorf("step %d: staged emits %d, want 1", i, len(s.Emits))
		}
	}
	// Steps are contiguous: each starts right after the previous emit.
	for i := 1; i < len(p.Steps); i++ {
		if p.Steps[i].From != p.Steps[i-1].Emits[0].LayerIndex+1 {
			t.Errorf("step %d starts at %d, want %d", i, p.Steps[i].From,
				p.Steps[i-1].Emits[0].LayerIndex+1)
		}
	}
}

func TestStagedEliminatesRedundancy(t *testing.T) {
	// Section 4.2.1: Staged and Eager cost one full pass; Lazy costs far
	// more. For AlexNet's 4 top layers, Lazy is ≥3× Staged.
	lazy := compile(t, Lazy, BeforeJoin, "alexnet", 4, Options{})
	eager := compile(t, Eager, BeforeJoin, "alexnet", 4, Options{})
	staged := compile(t, Staged, AfterJoin, "alexnet", 4, Options{})

	if staged.TotalInferenceFLOPs() != eager.TotalInferenceFLOPs() {
		t.Errorf("staged FLOPs %d != eager FLOPs %d (both must be redundancy-free)",
			staged.TotalInferenceFLOPs(), eager.TotalInferenceFLOPs())
	}
	ratio := float64(lazy.TotalInferenceFLOPs()) / float64(staged.TotalInferenceFLOPs())
	if ratio < 3 {
		t.Errorf("lazy/staged FLOP ratio = %.2f, want >= 3", ratio)
	}
}

func TestAlexNetFc7Fc8RedundancyMatchesPaper(t *testing.T) {
	// Section 4.2.1's motivating numbers: with L = {fc7, fc8}, Lazy's fc8
	// pass redoes ~99% of fc7's work.
	lazy := compile(t, Lazy, BeforeJoin, "alexnet", 2, Options{})
	fc7 := lazy.Steps[0].FLOPsPerImage
	fc8 := lazy.Steps[1].FLOPsPerImage
	if frac := float64(fc7) / float64(fc8); frac < 0.97 {
		t.Errorf("fc7/fc8 = %.3f, want > 0.97 (99%% redundancy)", frac)
	}
	// And the paper's absolute numbers: fc7 ≈ 721 MFLOPs, fc8 ≈ 725 MFLOPs
	// for the grouped AlexNet; our ungrouped variant is ~2x but the ratio
	// holds. Check order of magnitude.
	if fc7 < 500e6 || fc7 > 3e9 {
		t.Errorf("fc7 cumulative FLOPs = %d, outside plausible AlexNet range", fc7)
	}
}

func TestPreMaterializedBase(t *testing.T) {
	p := compile(t, Staged, AfterJoin, "alexnet", 4, Options{PreMaterializeBase: true})
	if p.PreMaterializedBase != 0 {
		t.Fatal("pre-mat base not recorded")
	}
	// conv5 is pre-materialized; only fc6..fc8 are computed.
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(p.Steps))
	}
	if p.Steps[0].FromImage {
		t.Error("pre-mat plan must not read raw images")
	}
	conv5Idx := p.Layers[0].LayerIndex
	if p.Steps[0].From != conv5Idx+1 {
		t.Errorf("first step from = %d, want %d", p.Steps[0].From, conv5Idx+1)
	}
	// FLOPs must be far below the from-image plan.
	full := compile(t, Staged, AfterJoin, "alexnet", 4, Options{})
	if p.TotalInferenceFLOPs() >= full.TotalInferenceFLOPs()/2 {
		t.Errorf("pre-mat FLOPs %d not well below full %d",
			p.TotalInferenceFLOPs(), full.TotalInferenceFLOPs())
	}
}

func TestPreMaterializedSingleLayer(t *testing.T) {
	// Only the base layer selected: nothing to compute.
	p := compile(t, Staged, AfterJoin, "alexnet", 1, Options{PreMaterializeBase: true})
	if len(p.Steps) != 0 {
		t.Errorf("steps = %d, want 0", len(p.Steps))
	}
}

func TestCompileValidation(t *testing.T) {
	m, err := cnn.ComputeStats(cnn.AlexNet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(Kind(99), AfterJoin, m, 2, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Compile(Staged, AfterJoin, m, 0, Options{}); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := Compile(Staged, AfterJoin, m, 10, Options{}); err == nil {
		t.Error("k beyond feature layers accepted")
	}
}

func TestPlanNames(t *testing.T) {
	p := compile(t, Staged, AfterJoin, "alexnet", 4, Options{})
	if p.Name() != "Staged/AJ" {
		t.Errorf("name = %q, want Staged/AJ", p.Name())
	}
	p = compile(t, Eager, BeforeJoin, "alexnet", 4, Options{})
	if p.Name() != "Eager/BJ" {
		t.Errorf("name = %q, want Eager/BJ", p.Name())
	}
	p = compile(t, Lazy, BeforeJoin, "alexnet", 4, Options{PreMaterializeBase: true})
	if p.Name() != "Lazy/BJ+Pre-mat" {
		t.Errorf("name = %q", p.Name())
	}
	if Lazy.String() != "lazy" || Staged.String() != "staged" || Eager.String() != "eager" {
		t.Error("kind strings wrong")
	}
	if AfterJoin.String() != "AJ" || BeforeJoin.String() != "BJ" {
		t.Error("placement strings wrong")
	}
}

// TestParseKind: ParseKind inverts Kind.String exactly — no other spelling,
// case or the empty string — and names what it could not parse.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Staged, Lazy, Eager} {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, s := range []string{"", "Lazy", "STAGED", "nope"} {
		if _, err := ParseKind(s); err == nil || err.Error() != fmt.Sprintf("unknown plan %q", s) {
			t.Errorf("ParseKind(%q) error = %v, want unknown plan %q", s, err, s)
		}
	}
}

func TestTinyModelsCompileToo(t *testing.T) {
	// The executable Tiny variants must compile to structurally identical
	// plans (same step counts) as their full-scale counterparts.
	for _, pair := range [][2]string{{"alexnet", "tiny-alexnet"}, {"resnet50", "tiny-resnet50"}} {
		full := compile(t, Staged, AfterJoin, pair[0], 3, Options{})
		tiny := compile(t, Staged, AfterJoin, pair[1], 3, Options{})
		if len(full.Steps) != len(tiny.Steps) {
			t.Errorf("%s: %d steps vs tiny's %d", pair[0], len(full.Steps), len(tiny.Steps))
		}
		for i := range full.Steps {
			if full.Steps[i].Emits[0].LayerName != tiny.Steps[i].Emits[0].LayerName {
				t.Errorf("%s step %d emits %s, tiny emits %s", pair[0], i,
					full.Steps[i].Emits[0].LayerName, tiny.Steps[i].Emits[0].LayerName)
			}
		}
	}
}

// TestAttachable pins the attach rule and the order it asks the store in:
// back to front, a step's emits bottom-up up to the first miss, and a carry
// only when the next step runs live. Each case names the plan's selected
// layers 0..2 bottom-up and the entries the store holds.
func TestAttachable(t *testing.T) {
	type entry struct {
		layer int // position in Plan.Layers
		carry bool
	}
	cases := []struct {
		name     string
		kind     Kind
		held     []entry
		want     []bool
		wantAsks []entry
	}{
		{"staged/cold", Staged, nil,
			[]bool{false, false, false}, []entry{{2, false}, {1, false}, {0, false}}},
		{"staged/features only", Staged, []entry{{0, false}, {1, false}, {2, false}},
			[]bool{true, true, true}, []entry{{2, false}, {1, false}, {0, false}}},
		{"staged/top two features", Staged, []entry{{1, false}, {2, false}},
			[]bool{false, true, true}, []entry{{2, false}, {1, false}, {0, false}}},
		{"staged/bottom two features, no carry", Staged, []entry{{0, false}, {1, false}},
			[]bool{false, false, false},
			[]entry{{2, false}, {1, false}, {1, true}, {0, false}, {0, true}}},
		{"staged/bottom two features and carries", Staged, []entry{{0, false}, {0, true}, {1, false}, {1, true}},
			[]bool{true, true, false},
			[]entry{{2, false}, {1, false}, {1, true}, {0, false}}},
		{"eager/hole stops the step", Eager, []entry{{0, false}, {2, false}},
			[]bool{false}, []entry{{0, false}, {1, false}}},
		{"lazy/steps stand alone", Lazy, []entry{{0, false}, {2, false}},
			[]bool{true, false, true}, []entry{{2, false}, {1, false}, {0, false}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compile(t, tc.kind, AfterJoin, "alexnet", 3, Options{})
			pos := make(map[int]int)
			for i, l := range p.Layers {
				pos[l.LayerIndex] = i
			}
			held := make(map[entry]bool)
			for _, e := range tc.held {
				held[e] = true
			}
			var asks []entry
			got := p.Attachable(func(layer int, carry bool) bool {
				e := entry{pos[layer], carry}
				asks = append(asks, e)
				return held[e]
			})
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("attached %v, want %v", got, tc.want)
			}
			if fmt.Sprint(asks) != fmt.Sprint(tc.wantAsks) {
				t.Errorf("asked %v, want %v", asks, tc.wantAsks)
			}
			all := fmt.Sprint(got) == fmt.Sprint([]bool{true, true, true}[:len(got)])
			if p.FullyCached(got) != all {
				t.Errorf("FullyCached = %v with attached %v", p.FullyCached(got), got)
			}
		})
	}
	p := compile(t, Staged, AfterJoin, "alexnet", 3, Options{})
	if got := p.Attachable(nil); fmt.Sprint(got) != "[false false false]" {
		t.Errorf("nil predicate attached %v", got)
	}
	if n := p.AttachedLayers([]bool{false, true, true}); n != 2 {
		t.Errorf("AttachedLayers = %d, want 2", n)
	}
	pre := compile(t, Staged, AfterJoin, "alexnet", 3, Options{PreMaterializeBase: true})
	if pre.FullyCached(pre.Attachable(func(int, bool) bool { return true })) {
		t.Error("a plan reading a pre-materialized base counted as fully cached")
	}
}
