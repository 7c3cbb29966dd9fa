package data

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/tensor"
)

func TestGenerateShapesAndDeterminism(t *testing.T) {
	spec := Foods().WithRows(200)
	s1, i1, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(s1) != 200 || len(i1) != 200 {
		t.Fatalf("rows = %d/%d, want 200/200", len(s1), len(i1))
	}
	for i := range s1 {
		if s1[i].ID != i1[i].ID {
			t.Fatal("tables not aligned on ID")
		}
		if len(s1[i].Structured) != spec.StructDim {
			t.Fatalf("struct dim = %d, want %d", len(s1[i].Structured), spec.StructDim)
		}
		if s1[i].Image != nil || i1[i].Image == nil {
			t.Fatal("payloads on wrong table")
		}
	}
	s2, i2, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s1[7].Structured[3] != s2[7].Structured[3] {
		t.Error("structured generation not deterministic")
	}
	if len(i1[7].Image) != len(i2[7].Image) {
		t.Error("image generation not deterministic")
	}
}

func TestGenerateLabelBalance(t *testing.T) {
	spec := Foods().WithRows(2000)
	spec.ImageSize = 8 // label logic is independent of rendering cost
	s, _, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for i := range s {
		if s[i].Label == 1 {
			pos++
		}
	}
	frac := float64(pos) / 2000
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("positive fraction = %.3f, want roughly balanced", frac)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, _, err := Generate(Spec{Rows: 0, StructDim: 5, ImageSize: 32}); err == nil {
		t.Error("accepted zero rows")
	}
	if _, _, err := Generate(Spec{Rows: 5, StructDim: 0, ImageSize: 32}); err == nil {
		t.Error("accepted zero struct dim")
	}
	if _, _, err := Generate(Spec{Rows: 5, StructDim: 5, ImageSize: 4}); err == nil {
		t.Error("accepted tiny image size")
	}
}

func TestImagesDecodeToSpecShape(t *testing.T) {
	spec := Foods().WithRows(10)
	_, imgs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	img, err := tensor.Decode(imgs[0].Image)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := tensor.Shape{3, spec.ImageSize, spec.ImageSize}
	if !img.Shape().Equal(want) {
		t.Errorf("image shape = %v, want %v", img.Shape(), want)
	}
	// The stored image is the tensor's float32 payload behind the format
	// word, the rank and the three dims, and nothing else.
	if got, want := len(imgs[0].Image), 8+4*3+4*img.Shape().NumElements(); got != want {
		t.Errorf("encoded image is %d B, want %d", got, want)
	}
}

func TestPresetCardinalitiesMatchPaper(t *testing.T) {
	f := Foods()
	if f.Rows != 20000 || f.StructDim != 130 {
		t.Errorf("Foods preset = %d rows × %d features; paper says 20000 × 130", f.Rows, f.StructDim)
	}
	a := Amazon()
	if a.Rows != 200000 || a.StructDim != 200 {
		t.Errorf("Amazon preset = %d rows × %d features; paper says 200000 × 200", a.Rows, a.StructDim)
	}
}

func TestStructuredSignalIsPartial(t *testing.T) {
	// Structured features alone must be predictive but far from perfect —
	// leaving room for image features to add lift (Figure 8's premise).
	spec := Foods().WithRows(3000)
	spec.ImageSize = 8 // structured signal is independent of rendering cost
	s, _, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ml.SplitByID(s, 0.25)
	m, err := ml.TrainLogRegRows(train, ml.StructuredOnly(), Foods().StructDim,
		ml.LogRegConfig{Iterations: 40, LearningRate: 0.5, Alpha: 0.5, Lambda: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	met, err := ml.Evaluate(m, test, ml.StructuredOnly())
	if err != nil {
		t.Fatal(err)
	}
	if met.Accuracy < 0.6 {
		t.Errorf("struct-only accuracy = %.3f, want >= 0.6 (features must carry signal)", met.Accuracy)
	}
	if met.Accuracy > 0.92 {
		t.Errorf("struct-only accuracy = %.3f: too strong, leaves no room for image lift", met.Accuracy)
	}
}

func TestStats(t *testing.T) {
	s, i, err := Generate(Foods().WithRows(50))
	if err != nil {
		t.Fatal(err)
	}
	st := Stats(s, i)
	if st.NumRows != 50 {
		t.Errorf("stats = %+v", st)
	}
	if st.StructRowBytes <= 0 || st.ImageRowBytes <= 0 {
		t.Error("row byte stats missing")
	}
	if st.ImageRowBytes <= st.StructRowBytes {
		t.Error("image rows should be larger than structured rows")
	}
	empty := Stats(nil, nil)
	if empty.NumRows != 0 || empty.StructRowBytes != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestHOGDimensionsAndNorm(t *testing.T) {
	img := tensor.New(3, 64, 64)
	for i := range img.Data() {
		img.Data()[i] = float32(i % 13)
	}
	feats, err := HOG(img, HOGConfig{CellSize: 8, Bins: 9})
	if err != nil {
		t.Fatalf("HOG: %v", err)
	}
	if len(feats) != 8*8*9 {
		t.Errorf("HOG dim = %d, want 8*8*9", len(feats))
	}
	// Each cell's histogram is L2-normalized: norms in [0, ~1].
	for cell := 0; cell < 64; cell++ {
		var norm float64
		for b := 0; b < 9; b++ {
			v := float64(feats[cell*9+b])
			if v < 0 {
				t.Fatalf("negative histogram value at cell %d", cell)
			}
			norm += v * v
		}
		if norm > 1.01 {
			t.Fatalf("cell %d norm² = %.3f > 1", cell, norm)
		}
	}
}

func TestHOGDistinguishesOrientations(t *testing.T) {
	// Horizontal vs vertical stripes must produce clearly different
	// histograms — the property that makes HOG a meaningful baseline.
	horiz := tensor.New(1, 32, 32)
	vert := tensor.New(1, 32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			if y%4 < 2 {
				horiz.Data()[y*32+x] = 1
			}
			if x%4 < 2 {
				vert.Data()[y*32+x] = 1
			}
		}
	}
	cfg := HOGConfig{CellSize: 8, Bins: 9}
	fh, err := HOG(horiz, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := HOG(vert, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dist float64
	for i := range fh {
		d := float64(fh[i] - fv[i])
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Errorf("HOG distance between orientations = %.3f, want > 1", math.Sqrt(dist))
	}
}

func TestHOGValidation(t *testing.T) {
	cfg := HOGConfig{CellSize: 8, Bins: 9}
	if _, err := HOG(tensor.New(4), cfg); err == nil {
		t.Error("accepted rank-1 input")
	}
	if _, err := HOG(tensor.New(1, 4, 4), cfg); err == nil {
		t.Error("accepted image smaller than cell")
	}
	if _, err := HOG(tensor.New(1, 32, 32), HOGConfig{CellSize: 0, Bins: 9}); err == nil {
		t.Error("accepted zero cell size")
	}
	if _, err := HOG(tensor.New(3, 32, 32), HOGConfig{CellSize: 8, Bins: 0}); err == nil {
		t.Error("accepted zero bins")
	}
}
