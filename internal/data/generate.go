package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// Spec describes a synthetic multimodal dataset.
type Spec struct {
	// Name labels the dataset ("foods", "amazon").
	Name string
	// Rows is the number of examples.
	Rows int
	// StructDim is the structured feature dimensionality (including
	// engineered interactions, as in the paper's Foods pre-processing).
	StructDim int
	// ImageSize is the square image resolution (CHW with 3 channels).
	ImageSize int
	// Seed makes generation deterministic.
	Seed int64
	// StructSignal in [0,1] scales how predictive the structured features
	// are on their own.
	StructSignal float64
	// ImageSignal in [0,1] scales how much extra class signal the images
	// carry beyond the structured features.
	ImageSignal float64
}

// Foods returns the Foods-like preset: ~20k rows, 130 structured features
// (nutrition facts and their interactions), binary plant-based target.
func Foods() Spec {
	return Spec{Name: "foods", Rows: 20000, StructDim: 130, ImageSize: 64, Seed: 101,
		StructSignal: 0.45, ImageSignal: 0.35}
}

// Amazon returns the Amazon-like preset: ~200k rows, 200 structured features
// (Doc2Vec title embedding + PCA category features + price), binarized
// sales-rank target. The paper's accuracy experiments use a 20k sample.
func Amazon() Spec {
	return Spec{Name: "amazon", Rows: 200000, StructDim: 200, ImageSize: 64, Seed: 202,
		StructSignal: 0.3, ImageSignal: 0.3}
}

// Preset returns the named dataset preset ("foods" or "amazon") at the
// paper's cardinality; ok is false for any other name.
func Preset(name string) (Spec, bool) {
	switch name {
	case "foods":
		return Foods(), true
	case "amazon":
		return Amazon(), true
	}
	return Spec{}, false
}

// WithRows returns a copy of the spec scaled to n rows (for tests and
// data-scale sweeps: the paper's "1X/2X/4X/8X" replication).
func (s Spec) WithRows(n int) Spec {
	s.Rows = n
	return s
}

// Generate materializes the dataset as two aligned row slices: the
// structured table Tstr(ID, X) and the image table Timg(ID, I) of
// Section 3.2. Labels ride on the structured rows.
func Generate(spec Spec) (structRows, imageRows []dataflow.Row, err error) {
	if spec.Rows <= 0 || spec.StructDim <= 0 || spec.ImageSize < 8 {
		return nil, nil, fmt.Errorf("data: invalid spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// A fixed random hyperplane over a handful of latent factors drives the
	// label; structured features observe some factors noisily, images
	// render others visually.
	const latentDim = 6
	structRows = make([]dataflow.Row, spec.Rows)
	imageRows = make([]dataflow.Row, spec.Rows)
	for i := 0; i < spec.Rows; i++ {
		latent := make([]float64, latentDim)
		for j := range latent {
			latent[j] = rng.NormFloat64()
		}
		score := 0.9*latent[0] + 0.7*latent[1] + 0.6*latent[2] + 0.5*latent[3]
		label := float32(0)
		if score > 0 {
			label = 1
		}

		structRows[i] = dataflow.Row{
			ID:         int64(i),
			Label:      label,
			Structured: structuredFeatures(spec, latent, rng),
		}
		img, err := renderImage(spec, latent, label, rng)
		if err != nil {
			return nil, nil, err
		}
		imageRows[i] = dataflow.Row{ID: int64(i), Image: tensor.Encode(img)}
	}
	return structRows, imageRows, nil
}

// structuredFeatures observes latent factors 0 and 1 (noisily, scaled by
// StructSignal), fills the rest with noise, and appends pairwise
// interactions of the first few features, mimicking the paper's engineered
// Foods features.
func structuredFeatures(spec Spec, latent []float64, rng *rand.Rand) []float32 {
	x := make([]float32, spec.StructDim)
	informative := 8
	if informative > spec.StructDim {
		informative = spec.StructDim
	}
	for j := 0; j < informative; j++ {
		signal := spec.StructSignal * latent[j%2]
		x[j] = float32(signal + (1-spec.StructSignal)*rng.NormFloat64())
	}
	base := informative
	interactions := 0
	for a := 0; a < informative && base+interactions < spec.StructDim/2; a++ {
		for b := a + 1; b < informative && base+interactions < spec.StructDim/2; b++ {
			x[base+interactions] = x[a] * x[b]
			interactions++
		}
	}
	for j := base + interactions; j < spec.StructDim; j++ {
		x[j] = float32(rng.NormFloat64())
	}
	return x
}

// renderImage draws a 3×S×S image whose appearance encodes latent factors 2
// and 3 (unavailable to the structured features) at two abstraction levels:
//
//   - texture: oriented stripes whose angle and frequency follow factor 2 —
//     recoverable by HOG-style gradient features and low CNN layers;
//   - shape: a bright blob whose position and size follow factor 3 —
//     recoverable by mid-level CNN features, diluted by global pooling.
//
// ImageSignal scales the rendering contrast; the remainder is noise.
func renderImage(spec Spec, latent []float64, label float32, rng *rand.Rand) (*tensor.Tensor, error) {
	s := spec.ImageSize
	img := tensor.New(3, s, s)
	d := img.Data()
	sig := spec.ImageSignal

	// Background: smooth color gradient, slightly label-tinted.
	for c := 0; c < 3; c++ {
		tint := 0.1 * sig * float64(label) * float64(c%2)
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				v := 0.3 + 0.2*float64(y)/float64(s) + tint
				d[(c*s+y)*s+x] = float32(v)
			}
		}
	}

	// Texture: stripes at an angle driven by latent factor 2 — the signal
	// orientation-histogram features (HOG) can recover.
	angle := math.Pi/4 + 0.5*latent[2]
	freq := 0.35 + 0.1*math.Tanh(latent[2])
	cosA, sinA := math.Cos(angle), math.Sin(angle)
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			phase := freq * (cosA*float64(x) + sinA*float64(y))
			v := 0.18 * sig * math.Sin(2*math.Pi*phase)
			for c := 0; c < 3; c++ {
				d[(c*s+y)*s+x] += float32(v)
			}
		}
	}

	// Shape: a luminance-neutral color-opponent blob positioned and sized
	// by latent factor 3 — a localized mid-level pattern CNN channels
	// capture but grayscale orientation histograms (HOG) cannot see at
	// all: the channel mean is unchanged everywhere.
	t3 := math.Tanh(latent[3])
	cx := float64(s) * (0.5 + 0.3*t3)
	cy := float64(s) * (0.5 - 0.3*t3)
	radius := float64(s) * (0.12 + 0.05*math.Abs(t3))
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			g := float32(0.9 * sig * math.Exp(-(dx*dx+dy*dy)/(2*radius*radius)))
			d[(0*s+y)*s+x] += g
			d[(1*s+y)*s+x] -= g / 2
			d[(2*s+y)*s+x] -= g / 2
		}
	}

	// Pixel noise.
	for i := range d {
		d[i] += float32(0.12 * rng.NormFloat64())
	}
	return img, nil
}

// TableStats carries the dataset statistics Vista's API expects from the
// user (Table 1(A): "data tables Tstr and Timg and statistics about the
// data").
type TableStats struct {
	NumRows int
	// StructRowBytes is the average in-memory size of one structured row.
	StructRowBytes int64
	// ImageRowBytes is the average in-memory size of one raw-image row.
	ImageRowBytes int64
}

// Stats measures the generated tables.
func Stats(structRows, imageRows []dataflow.Row) TableStats {
	st := TableStats{NumRows: len(structRows)}
	if len(structRows) > 0 {
		var b int64
		for i := range structRows {
			b += structRows[i].MemBytes()
		}
		st.StructRowBytes = b / int64(len(structRows))
	}
	if len(imageRows) > 0 {
		var b int64
		for i := range imageRows {
			b += imageRows[i].MemBytes()
		}
		st.ImageRowBytes = b / int64(len(imageRows))
	}
	return st
}
