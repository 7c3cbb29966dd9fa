package cnn

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// This file defines Vista's CNN roster (Section 3.3: "a roster of popular
// named deep CNNs with numbered feature layers"): AlexNet, VGG16, and
// ResNet50, the three models the paper supports, plus Tiny* variants with the
// same topology but scaled-down channels and input resolution. The full-scale
// models supply the optimizer's statistics (shapes, FLOPs, parameter counts);
// the Tiny variants are small enough to execute for real in tests, examples,
// and the accuracy experiments.

func conv(name string, in, out, k, s, p int) *Conv {
	return &Conv{LayerName: name, ReLU: true,
		Spec: tensor.Conv2DSpec{InChannels: in, OutChannels: out, Kernel: k, Stride: s, Pad: p}}
}

func pool(name string, k, s int) *MaxPool {
	return &MaxPool{LayerName: name, Spec: tensor.PoolSpec{Kernel: k, Stride: s}}
}

// AlexNet returns the full-scale AlexNet architecture (Krizhevsky et al.,
// NIPS 2012) on 227×227 RGB inputs, without the historical filter grouping.
// Feature layers, bottom to top: conv5, fc6, fc7, fc8 — the paper's |L| = 4
// selection (Section 5, "conv5 to fc8 from AlexNet").
func AlexNet() *Model {
	layers := []Layer{
		conv("conv1", 3, 96, 11, 4, 0), // 55×55×96
		pool("pool1", 3, 2),            // 27×27×96
		conv("conv2", 96, 256, 5, 1, 2),
		pool("pool2", 3, 2), // 13×13×256
		conv("conv3", 256, 384, 3, 1, 1),
		conv("conv4", 384, 384, 3, 1, 1),
		conv("conv5", 384, 256, 3, 1, 1), // 13×13×256, feature layer
		pool("pool5", 3, 2),              // 6×6×256
		&FC{LayerName: "fc6", Units: 4096, ReLU: true},
		&FC{LayerName: "fc7", Units: 4096, ReLU: true},
		&FC{LayerName: "fc8", Units: 1000},
	}
	return &Model{
		Name:       "alexnet",
		InputShape: tensor.Shape{3, 227, 227},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "conv5", LayerIndex: 6},
			{Name: "fc6", LayerIndex: 8},
			{Name: "fc7", LayerIndex: 9},
			{Name: "fc8", LayerIndex: 10},
		},
	}
}

// VGG16 returns the full-scale VGG16 architecture (Simonyan & Zisserman,
// 2014) on 224×224 RGB inputs. Feature layers: fc6, fc7, fc8 — the paper's
// |L| = 3 selection.
func VGG16() *Model {
	var layers []Layer
	add := func(l Layer) { layers = append(layers, l) }
	widths := []struct {
		n, c int
	}{{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}}
	in := 3
	for b, blk := range widths {
		for i := 0; i < blk.n; i++ {
			add(conv(fmt.Sprintf("conv%d_%d", b+1, i+1), in, blk.c, 3, 1, 1))
			in = blk.c
		}
		add(pool(fmt.Sprintf("pool%d", b+1), 2, 2))
	}
	add(&FC{LayerName: "fc6", Units: 4096, ReLU: true})
	add(&FC{LayerName: "fc7", Units: 4096, ReLU: true})
	add(&FC{LayerName: "fc8", Units: 1000})
	return &Model{
		Name:       "vgg16",
		InputShape: tensor.Shape{3, 224, 224},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "fc6", LayerIndex: len(layers) - 3},
			{Name: "fc7", LayerIndex: len(layers) - 2},
			{Name: "fc8", LayerIndex: len(layers) - 1},
		},
	}
}

// resNetStages appends ResNet bottleneck stages to layers and returns the
// updated slice. counts[i] blocks at width mids[i]; the first block of every
// stage after the first uses stride 2.
func resNetStages(layers []Layer, mids, counts []int, stageBase int) []Layer {
	for s := range mids {
		for b := 0; b < counts[s]; b++ {
			stride := 1
			if s > 0 && b == 0 {
				stride = 2
			}
			layers = append(layers, &Bottleneck{
				LayerName: fmt.Sprintf("conv%d_%d", stageBase+s, b+1),
				Mid:       mids[s],
				Stride:    stride,
				Project:   b == 0,
			})
		}
	}
	return layers
}

// ResNet50 returns the full-scale ResNet50 architecture (He et al., CVPR
// 2016) on 224×224 RGB inputs. Feature layers, bottom to top: conv4_6,
// conv5_1, conv5_2, conv5_3, fc6 (the globally pooled 2048-vector) — the
// paper's |L| = 5 selection ("top 5 layers from ResNet, from its last two
// layer blocks"; Figure 8 labels them conv4_6, conv5_1..3, fc_6).
func ResNet50() *Model {
	layers := []Layer{
		&BNConv{LayerName: "conv1", ReLU: true,
			Spec: tensor.Conv2DSpec{InChannels: 3, OutChannels: 64, Kernel: 7, Stride: 2, Pad: 3}},
		&MaxPool{LayerName: "pool1", Spec: tensor.PoolSpec{Kernel: 3, Stride: 2, Pad: 1}},
	}
	layers = resNetStages(layers, []int{64, 128, 256, 512}, []int{3, 4, 6, 3}, 2)
	layers = append(layers,
		&GlobalAvgPool{LayerName: "pool5"},
		&FC{LayerName: "fc", Units: 1000},
	)
	// Layer indices: 2 stem layers, then 3+4+6+3 = 16 blocks, then pool5, fc.
	conv46 := 2 + 3 + 4 + 6 - 1 // last conv4 block
	return &Model{
		Name:       "resnet50",
		InputShape: tensor.Shape{3, 224, 224},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "conv4_6", LayerIndex: conv46},
			{Name: "conv5_1", LayerIndex: conv46 + 1},
			{Name: "conv5_2", LayerIndex: conv46 + 2},
			{Name: "conv5_3", LayerIndex: conv46 + 3},
			{Name: "fc6", LayerIndex: conv46 + 4}, // pooled 2048-vector
		},
	}
}

// TinyInputSize is the square input resolution of the Tiny* roster variants.
const TinyInputSize = 64

// TinyAlexNet returns an executable scaled-down AlexNet: same layer
// topology and feature-layer structure on 64×64 inputs with ~1/8 channels.
func TinyAlexNet() *Model {
	layers := []Layer{
		conv("conv1", 3, 16, 5, 2, 2), // 32×32×16
		pool("pool1", 2, 2),           // 16×16×16
		conv("conv2", 16, 32, 3, 1, 1),
		pool("pool2", 2, 2), // 8×8×32
		conv("conv3", 32, 48, 3, 1, 1),
		conv("conv4", 48, 48, 3, 1, 1),
		conv("conv5", 48, 32, 3, 1, 1), // 8×8×32, feature layer
		pool("pool5", 2, 2),            // 4×4×32
		&FC{LayerName: "fc6", Units: 96, ReLU: true},
		&FC{LayerName: "fc7", Units: 96, ReLU: true},
		&FC{LayerName: "fc8", Units: 32},
	}
	return &Model{
		Name:       "tiny-alexnet",
		InputShape: tensor.Shape{3, TinyInputSize, TinyInputSize},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "conv5", LayerIndex: 6},
			{Name: "fc6", LayerIndex: 8},
			{Name: "fc7", LayerIndex: 9},
			{Name: "fc8", LayerIndex: 10},
		},
	}
}

// TinyVGG16 returns an executable scaled-down VGG16 on 64×64 inputs.
func TinyVGG16() *Model {
	var layers []Layer
	add := func(l Layer) { layers = append(layers, l) }
	widths := []struct {
		n, c int
	}{{2, 8}, {2, 16}, {3, 24}, {3, 32}, {3, 32}}
	in := 3
	for b, blk := range widths {
		for i := 0; i < blk.n; i++ {
			add(conv(fmt.Sprintf("conv%d_%d", b+1, i+1), in, blk.c, 3, 1, 1))
			in = blk.c
		}
		add(pool(fmt.Sprintf("pool%d", b+1), 2, 2))
	}
	add(&FC{LayerName: "fc6", Units: 128, ReLU: true})
	add(&FC{LayerName: "fc7", Units: 128, ReLU: true})
	add(&FC{LayerName: "fc8", Units: 32})
	return &Model{
		Name:       "tiny-vgg16",
		InputShape: tensor.Shape{3, TinyInputSize, TinyInputSize},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "fc6", LayerIndex: len(layers) - 3},
			{Name: "fc7", LayerIndex: len(layers) - 2},
			{Name: "fc8", LayerIndex: len(layers) - 1},
		},
	}
}

// TinyResNet50 returns an executable scaled-down ResNet50 on 64×64 inputs.
func TinyResNet50() *Model {
	layers := []Layer{
		&BNConv{LayerName: "conv1", ReLU: true,
			Spec: tensor.Conv2DSpec{InChannels: 3, OutChannels: 16, Kernel: 7, Stride: 2, Pad: 3}},
		&MaxPool{LayerName: "pool1", Spec: tensor.PoolSpec{Kernel: 3, Stride: 2, Pad: 1}},
	}
	layers = resNetStages(layers, []int{8, 16, 24, 32}, []int{3, 4, 6, 3}, 2)
	layers = append(layers,
		&GlobalAvgPool{LayerName: "pool5"},
		&FC{LayerName: "fc", Units: 32},
	)
	conv46 := 2 + 3 + 4 + 6 - 1
	return &Model{
		Name:       "tiny-resnet50",
		InputShape: tensor.Shape{3, TinyInputSize, TinyInputSize},
		Layers:     layers,
		FeatureLayers: []FeatureLayer{
			{Name: "conv4_6", LayerIndex: conv46},
			{Name: "conv5_1", LayerIndex: conv46 + 1},
			{Name: "conv5_2", LayerIndex: conv46 + 2},
			{Name: "conv5_3", LayerIndex: conv46 + 3},
			{Name: "fc6", LayerIndex: conv46 + 4},
		},
	}
}

// rosterEntry is one named architecture of the roster. Its Stats are a
// pure function of the architecture, so they are derived once per process,
// on the first ComputeStats of a model ByName built from it.
type rosterEntry struct {
	name  string
	build func() *Model

	statsOnce sync.Once
	stats     *Stats
	statsErr  error
}

// roster lists the named models, full-scale first.
var roster = []*rosterEntry{
	{name: "alexnet", build: AlexNet},
	{name: "vgg16", build: VGG16},
	{name: "resnet50", build: ResNet50},
	{name: "tiny-alexnet", build: TinyAlexNet},
	{name: "tiny-vgg16", build: TinyVGG16},
	{name: "tiny-resnet50", build: TinyResNet50},
	{name: "tiny-densenet", build: TinyDenseNet},
}

// ByName returns the roster model with the given name: a new Model each
// call, whose ComputeStats is the roster entry's shared, read-only Stats.
// Its architecture must not be modified.
func ByName(name string) (*Model, error) {
	for _, e := range roster {
		if e.name == name {
			m := e.build()
			m.entry = e
			return m, nil
		}
	}
	return nil, fmt.Errorf("cnn: unknown roster model %q", name)
}

// RosterNames lists all models in the roster, full-scale first.
func RosterNames() []string {
	names := make([]string, len(roster))
	for i, e := range roster {
		names[i] = e.name
	}
	return names
}
