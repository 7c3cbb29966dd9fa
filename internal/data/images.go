package data

import (
	"fmt"
	"image"
	_ "image/jpeg" // register JPEG decoding
	_ "image/png"  // register PNG decoding
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// This file ingests real images (PNG/JPEG) into Vista's image-tensor format,
// so the library runs on actual photo datasets — the paper's Foods and
// Amazon inputs are directories of JPEGs — not only on the synthetic
// generator. Images are bilinearly resized to the target square resolution
// ("All images are resized to 227×227 resolution, as needed by popular
// CNNs", Section 5) and normalized to [0, 1] CHW float32.

// DecodeImage reads one PNG or JPEG and returns the resized CHW tensor.
func DecodeImage(r io.Reader, size int) (*tensor.Tensor, error) {
	if size <= 0 {
		return nil, fmt.Errorf("data: image size must be positive, got %d", size)
	}
	img, _, err := image.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("data: decode image: %w", err)
	}
	return resizeToTensor(img, size), nil
}

// resizeToTensor bilinearly samples the image into a (3, size, size) tensor
// with channel values in [0, 1].
func resizeToTensor(img image.Image, size int) *tensor.Tensor {
	bounds := img.Bounds()
	w, h := bounds.Dx(), bounds.Dy()
	out := tensor.New(3, size, size)
	d := out.Data()
	plane := size * size
	for y := 0; y < size; y++ {
		// Map output pixel centers into source coordinates.
		sy := (float64(y) + 0.5) * float64(h) / float64(size)
		y0, fy := splitCoord(sy, h)
		for x := 0; x < size; x++ {
			sx := (float64(x) + 0.5) * float64(w) / float64(size)
			x0, fx := splitCoord(sx, w)
			r, g, b := bilinear(img, bounds, x0, y0, fx, fy)
			idx := y*size + x
			d[idx] = r
			d[plane+idx] = g
			d[2*plane+idx] = b
		}
	}
	return out
}

// splitCoord converts a source coordinate into a base index and fraction,
// clamped so base+1 stays in range.
func splitCoord(s float64, limit int) (int, float64) {
	s -= 0.5
	if s < 0 {
		s = 0
	}
	i := int(s)
	if i > limit-2 {
		i = limit - 2
		if i < 0 {
			i = 0
		}
	}
	f := s - float64(i)
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return i, f
}

// bilinear samples four neighbors and blends them, returning [0,1] RGB.
func bilinear(img image.Image, bounds image.Rectangle, x0, y0 int, fx, fy float64) (float32, float32, float32) {
	at := func(x, y int) (float64, float64, float64) {
		if x > bounds.Dx()-1 {
			x = bounds.Dx() - 1
		}
		if y > bounds.Dy()-1 {
			y = bounds.Dy() - 1
		}
		r, g, b, _ := img.At(bounds.Min.X+x, bounds.Min.Y+y).RGBA()
		return float64(r) / 65535, float64(g) / 65535, float64(b) / 65535
	}
	r00, g00, b00 := at(x0, y0)
	r10, g10, b10 := at(x0+1, y0)
	r01, g01, b01 := at(x0, y0+1)
	r11, g11, b11 := at(x0+1, y0+1)
	blend := func(v00, v10, v01, v11 float64) float32 {
		top := v00*(1-fx) + v10*fx
		bot := v01*(1-fx) + v11*fx
		return float32(top*(1-fy) + bot*fy)
	}
	return blend(r00, r10, r01, r11), blend(g00, g10, g01, g11), blend(b00, b10, b01, b11)
}

// imageExtensions are the real-image formats LoadImageDir ingests.
var imageExtensions = map[string]bool{".png": true, ".jpg": true, ".jpeg": true}

// LoadImageDir builds an image table from a directory of PNG/JPEG files.
// Filenames (without extension) become row IDs when numeric; otherwise rows
// are numbered in sorted filename order. Each image is resized to size and
// stored in the engine's encoded tensor format.
func LoadImageDir(dir string, size int) ([]dataflow.Row, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("data: load image dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if imageExtensions[strings.ToLower(filepath.Ext(e.Name()))] {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("data: no PNG/JPEG images in %s", dir)
	}
	sort.Strings(names)
	rows := make([]dataflow.Row, 0, len(names))
	for i, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("data: %s: %w", name, err)
		}
		t, err := DecodeImage(f, size)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("data: %s: %w", name, err)
		}
		id := int64(i)
		if n, err := parseNumericStem(name); err == nil {
			id = n
		}
		rows = append(rows, dataflow.Row{ID: id, Image: tensor.Encode(t)})
	}
	return rows, nil
}

func parseNumericStem(name string) (int64, error) {
	stem := strings.TrimSuffix(name, filepath.Ext(name))
	var id int64
	_, err := fmt.Sscanf(stem, "%d", &id)
	if err != nil {
		return 0, err
	}
	// Reject partial parses like "12abc".
	if fmt.Sprintf("%d", id) != stem {
		return 0, fmt.Errorf("non-numeric stem %q", stem)
	}
	return id, nil
}
