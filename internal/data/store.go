package data

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// This file persists multimodal datasets in the layout the paper's workloads
// consume from HDFS: one file per image (the layout behind the "small files
// problem" of Section 5.3) plus a single CSV for the structured table.
//
//	<dir>/structured.csv        id,label,x0,x1,...
//	<dir>/images/<id>.img       encoded image tensor (tensor.Encode format)

const (
	structuredFile = "structured.csv"
	imagesDir      = "images"
	imageExt       = ".img"
)

// Save writes the dataset to dir, creating it if needed.
func Save(dir string, structRows, imageRows []dataflow.Row) error {
	if len(structRows) != len(imageRows) {
		return fmt.Errorf("data: %d structured rows vs %d image rows", len(structRows), len(imageRows))
	}
	if err := os.MkdirAll(filepath.Join(dir, imagesDir), 0o755); err != nil {
		return fmt.Errorf("data: save: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, structuredFile))
	if err != nil {
		return fmt.Errorf("data: save: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := range structRows {
		r := &structRows[i]
		fmt.Fprintf(w, "%d,%g", r.ID, r.Label)
		for _, v := range r.Structured {
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
		img := &imageRows[i]
		if img.ID != r.ID {
			return fmt.Errorf("data: save: misaligned tables at row %d (%d vs %d)", i, r.ID, img.ID)
		}
		path := filepath.Join(dir, imagesDir, fmt.Sprintf("%d%s", img.ID, imageExt))
		if err := os.WriteFile(path, img.Image, 0o644); err != nil {
			return fmt.Errorf("data: save image %d: %w", img.ID, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("data: save: %w", err)
	}
	return nil
}

// Load reads a dataset saved by Save. Reading pays one file open per image,
// like the paper's HDFS ingest, and decodes each image once to check it, so a
// file in another format (an earlier build's deflate-compressed images) fails
// here, named, rather than deep inside a run.
func Load(dir string) (structRows, imageRows []dataflow.Row, err error) {
	f, err := os.Open(filepath.Join(dir, structuredFile))
	if err != nil {
		return nil, nil, fmt.Errorf("data: load: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		row, err := parseStructRow(sc.Text())
		if err != nil {
			return nil, nil, fmt.Errorf("data: load: line %d: %w", line, err)
		}
		structRows = append(structRows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("data: load: %w", err)
	}

	entries, err := os.ReadDir(filepath.Join(dir, imagesDir))
	if err != nil {
		return nil, nil, fmt.Errorf("data: load: %w", err)
	}
	byID := make(map[int64][]byte, len(entries))
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, imageExt) {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimSuffix(name, imageExt), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("data: load: bad image filename %q", name)
		}
		path := filepath.Join(dir, imagesDir, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("data: load image %d: %w", id, err)
		}
		img, err := tensor.Decode(blob)
		if err != nil {
			return nil, nil, fmt.Errorf("data: load %s: %w; a dataset saved by an earlier build must be re-saved with -save-data", path, err)
		}
		tensor.Recycle(img)
		byID[id] = blob
	}
	for i := range structRows {
		blob, ok := byID[structRows[i].ID]
		if !ok {
			return nil, nil, fmt.Errorf("data: load: no image for row %d", structRows[i].ID)
		}
		imageRows = append(imageRows, dataflow.Row{ID: structRows[i].ID, Image: blob})
	}
	sort.Slice(structRows, func(a, b int) bool { return structRows[a].ID < structRows[b].ID })
	sort.Slice(imageRows, func(a, b int) bool { return imageRows[a].ID < imageRows[b].ID })
	return structRows, imageRows, nil
}

func parseStructRow(line string) (dataflow.Row, error) {
	fields := strings.Split(line, ",")
	if len(fields) < 2 {
		return dataflow.Row{}, fmt.Errorf("want at least id,label; got %q", line)
	}
	id, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return dataflow.Row{}, fmt.Errorf("bad id %q", fields[0])
	}
	label, err := strconv.ParseFloat(fields[1], 32)
	if err != nil {
		return dataflow.Row{}, fmt.Errorf("bad label %q", fields[1])
	}
	row := dataflow.Row{ID: id, Label: float32(label)}
	if len(fields) > 2 {
		row.Structured = make([]float32, len(fields)-2)
		for i, s := range fields[2:] {
			v, err := strconv.ParseFloat(s, 32)
			if err != nil {
				return dataflow.Row{}, fmt.Errorf("bad feature %d: %q", i, s)
			}
			row.Structured[i] = float32(v)
		}
	}
	return row, nil
}
