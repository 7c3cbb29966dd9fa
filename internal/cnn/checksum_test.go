package cnn

import "testing"

// TestWeightsChecksum pins the weights half of every feature-store address:
// equal seeds give equal checksums, and any changed value — another seed, or
// one weight nudged — gives a different one.
func TestWeightsChecksum(t *testing.T) {
	for _, name := range []string{"tiny-alexnet", "tiny-resnet50", "tiny-densenet"} {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		realize := func(seed int64) *Weights {
			w, err := m.RealizeWeights(seed)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		w := realize(9)
		sum := WeightsChecksum(w)
		if len(sum) != 64 || WeightsChecksum(realize(9)) != sum {
			t.Fatalf("%s: checksum %q is not a stable SHA-256 of the weights", name, sum)
		}
		if WeightsChecksum(realize(10)) == sum {
			t.Errorf("%s: seeds 9 and 10 share a checksum", name)
		}
		last := w.Layers[len(w.Layers)-1]
		last.W[0]++
		if WeightsChecksum(w) == sum {
			t.Errorf("%s: checksum ignores a changed weight", name)
		}
	}
}
