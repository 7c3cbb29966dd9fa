package ml

import (
	"fmt"
	"math"

	"repro/internal/dataflow"
	"repro/internal/memory"
)

// LogisticRegression is a binary classifier trained with elastic-net
// regularized gradient descent — the paper's downstream model in Figures 6
// and 8 ("logistic regression model with elastic net regularization with
// α = 0.5 and a regularization value of 0.01"). When trained with
// standardization, Mu and Sigma hold the per-dimension training statistics
// and Predict applies them, so callers never scale inputs themselves.
type LogisticRegression struct {
	W []float32
	B float32
	// Mu and Sigma are per-dimension standardization parameters (nil when
	// the model was trained on raw features).
	Mu, Sigma []float32
}

// Predict returns the positive-class probability.
func (m *LogisticRegression) Predict(x []float32) float32 {
	var z float64 = float64(m.B)
	n := len(x)
	if n > len(m.W) {
		n = len(m.W)
	}
	for i := 0; i < n; i++ {
		xv := float64(x[i])
		if m.Mu != nil {
			xv = (xv - float64(m.Mu[i])) / float64(m.Sigma[i])
		}
		z += float64(m.W[i]) * xv
	}
	return float32(1 / (1 + math.Exp(-z)))
}

// LogRegConfig sets the training hyper-parameters.
type LogRegConfig struct {
	// Iterations of full-batch gradient descent (paper: 10).
	Iterations int
	// LearningRate for the gradient step.
	LearningRate float64
	// Alpha mixes L1 vs L2 in the elastic net (paper: 0.5).
	Alpha float64
	// Lambda is the regularization strength (paper: 0.01).
	Lambda float64
	// Standardize z-scores each feature dimension on the training set
	// before fitting (standard MLlib-pipeline practice; essential when
	// concatenating structured features with raw CNN activations of very
	// different magnitudes).
	Standardize bool
}

// DefaultLogRegConfig mirrors the paper's Section 5 settings.
func DefaultLogRegConfig() LogRegConfig {
	return LogRegConfig{Iterations: 10, LearningRate: 0.5, Alpha: 0.5, Lambda: 0.01, Standardize: true}
}

// standardizer accumulates per-dimension moments and finalizes Mu/Sigma.
type standardizer struct {
	sum, sumSq []float64
	n          int64
}

func newStandardizer(dim int) *standardizer {
	return &standardizer{sum: make([]float64, dim), sumSq: make([]float64, dim)}
}

func (s *standardizer) add(x []float32) {
	for i, v := range x {
		s.sum[i] += float64(v)
		s.sumSq[i] += float64(v) * float64(v)
	}
	s.n++
}

func (s *standardizer) merge(o *standardizer) {
	for i := range s.sum {
		s.sum[i] += o.sum[i]
		s.sumSq[i] += o.sumSq[i]
	}
	s.n += o.n
}

// finalize returns Mu and Sigma (degenerate dimensions get sigma 1).
func (s *standardizer) finalize() (mu, sigma []float32) {
	mu = make([]float32, len(s.sum))
	sigma = make([]float32, len(s.sum))
	inv := 1 / float64(s.n)
	for i := range s.sum {
		m := s.sum[i] * inv
		v := s.sumSq[i]*inv - m*m
		if v < 1e-12 {
			v = 1
		}
		mu[i] = float32(m)
		sigma[i] = float32(math.Sqrt(v))
	}
	return mu, sigma
}

// TrainLogReg fits a logistic regression over a distributed table: one pass
// extracts every partition's design block on the workers, then every
// iteration aggregates per-partition gradient sums over those blocks in
// parallel (through the engine's memory-accounted aggregation path) and
// takes one driver-side step. The fit reads only the rows keep accepts (nil
// keeps every row), so a held-out split is a predicate over t, not a copy of
// it. dim is the feature dimensionality of extract's output.
func TrainLogReg(e *dataflow.Engine, t *dataflow.Table, keep func(*dataflow.Row) bool, extract FeatureFunc, dim int, cfg LogRegConfig) (*LogisticRegression, error) {
	// The driver accumulates one gradient vector per iteration (Section
	// 4.1, crash scenario 4: "the Driver may also have to collect partial
	// results from workers"); charge it once against driver memory.
	gradBytes := int64(dim) * 8
	if err := e.DriverPool().Alloc(gradBytes, ""); err != nil {
		return nil, memory.Describe(err, fmt.Sprintf("gradient aggregation over %d features", dim))
	}
	defer e.DriverPool().Free(gradBytes)
	return fit(t.NumPartitions(), func(fn blockFunc) error {
		return e.ForEachPartition(t, func(tc *dataflow.TaskContext, rows []dataflow.Row) error {
			return fn(tc, tc.Part, rows)
		})
	}, keep, extract, dim, cfg)
}

// TrainLogRegRows fits on an in-memory row slice on the driver (evaluation
// splits, exhibits and tests): TrainLogReg's fit over one partition, run
// inline, with nothing charged to an engine.
func TrainLogRegRows(rows []dataflow.Row, extract FeatureFunc, dim int, cfg LogRegConfig) (*LogisticRegression, error) {
	return fit(1, func(fn blockFunc) error { return fn(nil, 0, rows) }, nil, extract, dim, cfg)
}

// blockFunc works on one partition of a fit; tc is nil on the driver.
type blockFunc func(tc *dataflow.TaskContext, part int, rows []dataflow.Row) error

// designBlock is one partition's training examples as the iterations read
// them: rows×dim features (standardized when the fit standardizes),
// row-major, with the labels beside them. On an engine it is charged to its
// node's User pool for the whole fit. Beside it the partition keeps what it
// contributes to the driver: its standardizer moments after extraction, and
// its gradient sums after each iteration.
type designBlock struct {
	x, y  []float64
	pool  *memory.Pool
	bytes int64

	moments *standardizer
	grad    []float64
	gradB   float64
}

// fit trains over parts partitions; each runs fn once per partition (as
// engine tasks, or inline) and returns the first error. The first pass
// extracts every row keep accepts (every row when keep is nil) once into its
// partition's design block and its own standardizer moments; the first
// iteration's task scales its block in place before its gradient, and every
// iteration reads only the blocks. Every value is computed with the
// operations, in the order, Predict uses, so a one-partition fit is bit-identical to
// re-extracting and standardizing every row through Predict on every
// iteration. Partitions hand their moments and gradients to the driver
// through their own block, and the driver sums them in partition order after
// each pass, so the fit is a pure function of its input whatever order the
// tasks finish in.
func fit(parts int, each func(blockFunc) error, keep func(*dataflow.Row) bool, extract FeatureFunc, dim int, cfg LogRegConfig) (*LogisticRegression, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ml: non-positive feature dim %d", dim)
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("ml: non-positive iterations %d", cfg.Iterations)
	}
	if keep == nil {
		keep = func(*dataflow.Row) bool { return true }
	}
	blocks := make([]designBlock, parts)
	defer func() {
		for _, b := range blocks {
			if b.pool != nil {
				b.pool.Free(b.bytes)
			}
		}
	}()
	err := each(func(tc *dataflow.TaskContext, part int, rows []dataflow.Row) error {
		b := &blocks[part]
		kept := 0
		for i := range rows {
			if keep(&rows[i]) {
				kept++
			}
		}
		if tc != nil {
			pool, bytes := tc.Engine.UserPool(tc.NodeID), int64(kept)*int64(dim+1)*8
			if err := pool.Alloc(bytes, ""); err != nil {
				return memory.Describe(err, fmt.Sprintf("design block of partition %d", part))
			}
			b.pool, b.bytes = pool, bytes
		}
		b.x, b.y = make([]float64, kept*dim), make([]float64, kept)
		b.grad = make([]float64, dim)
		if cfg.Standardize {
			b.moments = newStandardizer(dim)
		}
		var x []float32
		k := 0
		for i := range rows {
			if !keep(&rows[i]) {
				continue
			}
			var y float32
			var err error
			if x, y, err = extract(x, &rows[i]); err != nil {
				return err
			}
			if len(x) != dim {
				return fmt.Errorf("ml: row %d has %d features, want %d", rows[i].ID, len(x), dim)
			}
			row := b.x[k*dim : (k+1)*dim]
			for j, v := range x {
				row[j] = float64(v)
			}
			b.y[k] = float64(y)
			if b.moments != nil {
				b.moments.add(x)
			}
			k++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := newStandardizer(dim)
	var n int64
	for i := range blocks {
		b := &blocks[i]
		n += int64(len(b.y))
		if b.moments != nil {
			st.merge(b.moments)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("ml: no training rows")
	}
	model := &LogisticRegression{W: make([]float32, dim)}
	if cfg.Standardize {
		model.Mu, model.Sigma = st.finalize()
	}

	inv := 1 / float64(n)
	w64 := make([]float64, dim)
	grad := make([]float64, dim)
	for iter := 0; iter < cfg.Iterations; iter++ {
		for j, w := range model.W {
			w64[j] = float64(w)
		}
		b64 := float64(model.B)
		scale := iter == 0 && cfg.Standardize
		err := each(func(tc *dataflow.TaskContext, part int, _ []dataflow.Row) error {
			b := &blocks[part]
			if scale {
				b.standardize(model.Mu, model.Sigma)
			}
			b.gradient(w64, b64)
			if tc != nil {
				tc.AddFLOPs(int64(dim) * 4 * int64(len(b.y))) // predict + gradient accumulate
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		clear(grad)
		var gradB float64
		for i := range blocks {
			for j, g := range blocks[i].grad {
				grad[j] += g
			}
			gradB += blocks[i].gradB
		}
		for j := range model.W {
			w := float64(model.W[j])
			g := grad[j]*inv + cfg.Lambda*(cfg.Alpha*sign(w)+(1-cfg.Alpha)*w)
			model.W[j] = float32(w - cfg.LearningRate*g)
		}
		model.B = float32(float64(model.B) - cfg.LearningRate*gradB*inv)
	}
	return model, nil
}

// standardize z-scores the block in place, element by element with
// Predict's scaling expression.
func (b *designBlock) standardize(mu, sigma []float32) {
	dim := len(mu)
	for r := range b.y {
		row := b.x[r*dim : (r+1)*dim]
		for j := range row {
			row[j] = (row[j] - float64(mu[j])) / float64(sigma[j])
		}
	}
}

// gradient sets b.grad and b.gradB to one iteration's gradient sums over the
// block at weights w and bias b64. It takes the rows four at a time: four
// independent dot products share each w[j] load (so they overlap instead of
// waiting on one add chain), and one column sweep then adds the four rows'
// terms into grad[j] in row order. Each z and each grad[j] is therefore the
// same sequence of float64 operations as the one-row loop that finishes the
// block's last rows, and the result is bit-identical to it.
func (b *designBlock) gradient(w []float64, b64 float64) {
	dim := len(w)
	grad := b.grad[:dim]
	clear(grad)
	var gradB float64
	r := 0
	for ; r+4 <= len(b.y); r += 4 {
		x0 := b.x[r*dim:][:dim]
		x1 := b.x[(r+1)*dim:][:dim]
		x2 := b.x[(r+2)*dim:][:dim]
		x3 := b.x[(r+3)*dim:][:dim]
		z0, z1, z2, z3 := b64, b64, b64, b64
		for j, wj := range w {
			z0 += wj * x0[j]
			z1 += wj * x1[j]
			z2 += wj * x2[j]
			z3 += wj * x3[j]
		}
		d0 := float64(float32(1/(1+math.Exp(-z0)))) - b.y[r]
		d1 := float64(float32(1/(1+math.Exp(-z1)))) - b.y[r+1]
		d2 := float64(float32(1/(1+math.Exp(-z2)))) - b.y[r+2]
		d3 := float64(float32(1/(1+math.Exp(-z3)))) - b.y[r+3]
		for j := range grad {
			g := grad[j]
			g += d0 * x0[j]
			g += d1 * x1[j]
			g += d2 * x2[j]
			g += d3 * x3[j]
			grad[j] = g
		}
		gradB += d0
		gradB += d1
		gradB += d2
		gradB += d3
	}
	for ; r < len(b.y); r++ {
		x := b.x[r*dim:][:dim]
		z := b64
		for j, wj := range w {
			z += wj * x[j]
		}
		d := float64(float32(1/(1+math.Exp(-z)))) - b.y[r]
		for j := range grad {
			grad[j] += d * x[j]
		}
		gradB += d
	}
	b.gradB = gradB
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
