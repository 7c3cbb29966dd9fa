package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataflow"
)

// MLP is a multi-layer perceptron binary classifier trained with mini-batch
// SGD — the downstream model of the paper's TFT+Beam comparison ("a 3-layer
// MLP (each hidden layer has 1024 units) ... using distributed TF/Horovod",
// Section 5.1).
type MLP struct {
	// hidden[i] holds layer i's weights (rows × cols row-major) and biases.
	weights [][]float32
	biases  [][]float32
	dims    []int // layer widths: in, hidden..., 1
}

// MLPConfig sets the network shape and SGD hyper-parameters.
type MLPConfig struct {
	Hidden       []int
	Iterations   int
	BatchSize    int
	LearningRate float64
	Seed         int64
}

// DefaultMLPConfig returns a small two-hidden-layer network.
func DefaultMLPConfig() MLPConfig {
	return MLPConfig{Hidden: []int{32, 16}, Iterations: 10, BatchSize: 32, LearningRate: 0.05, Seed: 1}
}

// NewMLP initializes a network for dim input features.
func NewMLP(dim int, cfg MLPConfig) (*MLP, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ml: non-positive input dim %d", dim)
	}
	dims := append([]int{dim}, cfg.Hidden...)
	dims = append(dims, 1)
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &MLP{dims: dims}
	for l := 0; l+1 < len(dims); l++ {
		in, out := dims[l], dims[l+1]
		w := make([]float32, in*out)
		std := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = float32(rng.NormFloat64() * std)
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float32, out))
	}
	return m, nil
}

// forward runs the network, returning all layer activations (post-ReLU for
// hidden layers, sigmoid for the output).
func (m *MLP) forward(x []float32) [][]float32 {
	acts := make([][]float32, len(m.dims))
	acts[0] = x
	for l := 0; l+1 < len(m.dims); l++ {
		in, out := m.dims[l], m.dims[l+1]
		a := make([]float32, out)
		w, b := m.weights[l], m.biases[l]
		prev := acts[l]
		for o := 0; o < out; o++ {
			sum := float64(b[o])
			base := o * in
			for i := 0; i < in; i++ {
				sum += float64(w[base+i]) * float64(prev[i])
			}
			if l+2 < len(m.dims) { // hidden: ReLU
				if sum < 0 {
					sum = 0
				}
				a[o] = float32(sum)
			} else { // output: sigmoid
				a[o] = float32(1 / (1 + math.Exp(-sum)))
			}
		}
		acts[l+1] = a
	}
	return acts
}

// Predict returns the positive-class probability.
func (m *MLP) Predict(x []float32) float32 {
	acts := m.forward(x)
	return acts[len(acts)-1][0]
}

// TrainMLP fits the network on rows with mini-batch SGD and backpropagation.
func TrainMLP(rows []dataflow.Row, extract FeatureFunc, dim int, cfg MLPConfig) (*MLP, error) {
	m, err := NewMLP(dim, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Iterations <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("ml: invalid MLP config %+v", cfg)
	}
	examples := make([]example, 0, len(rows))
	for i := range rows {
		x, y, err := extract(nil, &rows[i]) // each example keeps its x
		if err != nil {
			return nil, err
		}
		if len(x) != dim {
			return nil, fmt.Errorf("ml: row %d has %d features, want %d", rows[i].ID, len(x), dim)
		}
		examples = append(examples, example{x: x, y: y})
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("ml: no training rows")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for iter := 0; iter < cfg.Iterations; iter++ {
		rng.Shuffle(len(examples), func(i, j int) { examples[i], examples[j] = examples[j], examples[i] })
		for start := 0; start < len(examples); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(examples) {
				end = len(examples)
			}
			m.sgdStep(examples[start:end], cfg.LearningRate)
		}
	}
	return m, nil
}

// sgdStep applies one mini-batch gradient update via backpropagation.
func (m *MLP) sgdStep(batch []example, lr float64) {
	nLayers := len(m.weights)
	gradW := make([][]float64, nLayers)
	gradB := make([][]float64, nLayers)
	for l := range m.weights {
		gradW[l] = make([]float64, len(m.weights[l]))
		gradB[l] = make([]float64, len(m.biases[l]))
	}
	for _, e := range batch {
		acts := m.forward(e.x)
		// Output delta (sigmoid + log loss): p − y.
		deltas := make([][]float64, nLayers)
		out := acts[len(acts)-1][0]
		deltas[nLayers-1] = []float64{float64(out) - float64(e.y)}
		// Hidden deltas, back to front.
		for l := nLayers - 2; l >= 0; l-- {
			in, outDim := m.dims[l+1], m.dims[l+2]
			d := make([]float64, in)
			wNext := m.weights[l+1]
			for i := 0; i < in; i++ {
				if acts[l+1][i] <= 0 { // ReLU gate
					continue
				}
				var sum float64
				for o := 0; o < outDim; o++ {
					sum += float64(wNext[o*in+i]) * deltas[l+1][o]
				}
				d[i] = sum
			}
			deltas[l] = d
		}
		for l := 0; l < nLayers; l++ {
			in := m.dims[l]
			for o, d := range deltas[l] {
				gradB[l][o] += d
				base := o * in
				for i := 0; i < in; i++ {
					gradW[l][base+i] += d * float64(acts[l][i])
				}
			}
		}
	}
	scale := lr / float64(len(batch))
	for l := 0; l < nLayers; l++ {
		for i := range m.weights[l] {
			m.weights[l][i] -= float32(scale * gradW[l][i])
		}
		for i := range m.biases[l] {
			m.biases[l][i] -= float32(scale * gradB[l][i])
		}
	}
}
