package ml

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataflow"
)

// DecisionTree is a CART binary classifier with Gini-impurity splits — the
// alternative downstream model data scientists "often prefer ... on
// structured data" (Section 1.1), evaluated in Section 5.2.
type DecisionTree struct {
	root *treeNode
	// Dim is the expected feature dimensionality.
	Dim int
}

type treeNode struct {
	// Leaf prediction: fraction of positive examples.
	prob float32
	leaf bool
	// Split: feature index and threshold; left when x[feature] < threshold.
	feature     int
	threshold   float32
	left, right *treeNode
}

// TreeConfig sets the CART hyper-parameters.
type TreeConfig struct {
	MaxDepth    int
	MinLeafSize int
	// MaxFeatures caps the number of feature indices scanned per split
	// (evenly strided); 0 scans all. Keeps training tractable on wide CNN
	// feature vectors.
	MaxFeatures int
}

// DefaultTreeConfig mirrors a conventional shallow CART: the paper observes
// that conventional-depth trees don't benefit much from CNN features
// (Section 5.2) — which this reproduction's Figure 8 harness checks.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 6, MinLeafSize: 10, MaxFeatures: 64}
}

type example struct {
	x []float32
	y float32
}

// TrainTree fits a CART tree on the rows (driver-local, like MLlib's tree
// collect-and-fit for modest datasets).
func TrainTree(rows []dataflow.Row, extract FeatureFunc, cfg TreeConfig) (*DecisionTree, error) {
	if cfg.MaxDepth <= 0 {
		return nil, fmt.Errorf("ml: tree depth must be positive, got %d", cfg.MaxDepth)
	}
	if cfg.MinLeafSize <= 0 {
		cfg.MinLeafSize = 1
	}
	examples := make([]example, 0, len(rows))
	dim := -1
	for i := range rows {
		x, y, err := extract(nil, &rows[i]) // each example keeps its x
		if err != nil {
			return nil, err
		}
		if dim < 0 {
			dim = len(x)
		} else if len(x) != dim {
			return nil, fmt.Errorf("ml: inconsistent feature dims %d vs %d", len(x), dim)
		}
		examples = append(examples, example{x: x, y: y})
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("ml: no training rows")
	}
	t := &DecisionTree{Dim: dim}
	t.root = buildNode(examples, cfg, 0)
	return t, nil
}

func positiveFraction(ex []example) float32 {
	var pos int
	for _, e := range ex {
		if e.y >= 0.5 {
			pos++
		}
	}
	return float32(pos) / float32(len(ex))
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

func buildNode(ex []example, cfg TreeConfig, depth int) *treeNode {
	prob := positiveFraction(ex)
	if depth >= cfg.MaxDepth || len(ex) < 2*cfg.MinLeafSize || prob == 0 || prob == 1 {
		return &treeNode{leaf: true, prob: prob}
	}
	dim := len(ex[0].x)
	stride := 1
	if cfg.MaxFeatures > 0 && dim > cfg.MaxFeatures {
		stride = dim / cfg.MaxFeatures
	}

	bestFeature, bestThreshold := -1, float32(0)
	bestScore := math.Inf(1)
	idx := make([]int, len(ex))

	for f := 0; f < dim; f += stride {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return ex[idx[a]].x[f] < ex[idx[b]].x[f] })
		totalPos := 0
		for _, e := range ex {
			if e.y >= 0.5 {
				totalPos++
			}
		}
		leftPos := 0
		for i := 0; i < len(idx)-1; i++ {
			if ex[idx[i]].y >= 0.5 {
				leftPos++
			}
			nl := i + 1
			nr := len(ex) - nl
			if nl < cfg.MinLeafSize || nr < cfg.MinLeafSize {
				continue
			}
			if ex[idx[i]].x[f] == ex[idx[i+1]].x[f] {
				continue // no valid threshold between equal values
			}
			score := (float64(nl)*gini(leftPos, nl) + float64(nr)*gini(totalPos-leftPos, nr)) / float64(len(ex))
			if score < bestScore {
				bestScore = score
				bestFeature = f
				bestThreshold = (ex[idx[i]].x[f] + ex[idx[i+1]].x[f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	var left, right []example
	for _, e := range ex {
		if e.x[bestFeature] < bestThreshold {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      buildNode(left, cfg, depth+1),
		right:     buildNode(right, cfg, depth+1),
	}
}

// Predict returns the positive-class probability.
func (t *DecisionTree) Predict(x []float32) float32 {
	n := t.root
	for !n.leaf {
		if int(n.feature) < len(x) && x[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

// nodeDepth returns the height of the tree under n (a single leaf has depth
// 1).
func nodeDepth(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
