package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// HOGConfig parameterizes the Histogram-of-Oriented-Gradients extractor
// (Dalal & Triggs, CVPR 2005) — the paper's non-CNN image-feature baseline
// in Figure 8.
type HOGConfig struct {
	// CellSize is the square cell side in pixels.
	CellSize int
	// Bins is the number of unsigned orientation bins over [0, π).
	Bins int
}

// HOG computes L2-normalized per-cell orientation histograms of the
// grayscale gradient of a CHW image and returns them as a flat feature
// vector of length (H/cell)·(W/cell)·bins.
func HOG(img *tensor.Tensor, cfg HOGConfig) ([]float32, error) {
	s := img.Shape()
	if len(s) != 3 {
		return nil, fmt.Errorf("%w: HOG expects CHW, got %v", tensor.ErrShape, s)
	}
	if cfg.CellSize <= 0 || cfg.Bins <= 0 {
		return nil, fmt.Errorf("data: invalid HOG config %+v", cfg)
	}
	c, h, w := s[0], s[1], s[2]
	if h < cfg.CellSize || w < cfg.CellSize {
		return nil, fmt.Errorf("data: image %dx%d smaller than HOG cell %d", h, w, cfg.CellSize)
	}

	// Grayscale: channel mean.
	gray := make([]float64, h*w)
	d := img.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for i := 0; i < h*w; i++ {
			gray[i] += float64(d[base+i])
		}
	}
	inv := 1 / float64(c)
	for i := range gray {
		gray[i] *= inv
	}

	cellsY, cellsX := h/cfg.CellSize, w/cfg.CellSize
	hist := make([]float64, cellsY*cellsX*cfg.Bins)
	binWidth := math.Pi / float64(cfg.Bins)

	for y := 1; y < h-1; y++ {
		cy := y / cfg.CellSize
		if cy >= cellsY {
			continue
		}
		for x := 1; x < w-1; x++ {
			cx := x / cfg.CellSize
			if cx >= cellsX {
				continue
			}
			gx := gray[y*w+x+1] - gray[y*w+x-1]
			gy := gray[(y+1)*w+x] - gray[(y-1)*w+x]
			mag := math.Hypot(gx, gy)
			if mag == 0 {
				continue
			}
			theta := math.Atan2(gy, gx)
			if theta < 0 {
				theta += math.Pi // unsigned orientation
			}
			bin := int(theta / binWidth)
			if bin >= cfg.Bins {
				bin = cfg.Bins - 1
			}
			hist[(cy*cellsX+cx)*cfg.Bins+bin] += mag
		}
	}

	// L2-normalize each cell's histogram.
	out := make([]float32, len(hist))
	for cell := 0; cell < cellsY*cellsX; cell++ {
		base := cell * cfg.Bins
		var norm float64
		for b := 0; b < cfg.Bins; b++ {
			norm += hist[base+b] * hist[base+b]
		}
		norm = math.Sqrt(norm) + 1e-6
		for b := 0; b < cfg.Bins; b++ {
			out[base+b] = float32(hist[base+b] / norm)
		}
	}
	return out, nil
}
