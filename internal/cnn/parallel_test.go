package cnn

import (
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tensor"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sites := faultinject.ArmedSites(); len(sites) > 0 {
		fmt.Fprintf(os.Stderr, "failpoint sites left armed at exit: %v\n", sites)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// TestParallelInferSharedModel runs full inference concurrently over one
// shared model and weight set — the server's concurrent-runs shape. Under
// -race it asserts the GEMM worker pool, slab recycling inside PartialInfer,
// and the read-only weight sharing are goroutine-clean; the value check
// asserts concurrent inferences do not contaminate each other's activations.
func TestParallelInferSharedModel(t *testing.T) {
	for _, name := range []string{"tiny-alexnet", "tiny-resnet50", "tiny-densenet"} {
		t.Run(name, func(t *testing.T) {
			m, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := m.RealizeWeights(1)
			if err != nil {
				t.Fatal(err)
			}
			imgs := []*tensor.Tensor{randImage(m, 1), randImage(m, 2), randImage(m, 3)}
			wants := make([]*tensor.Tensor, len(imgs))
			for i, img := range imgs {
				if wants[i], err = fullInfer(m, w, img); err != nil {
					t.Fatal(err)
				}
			}
			const goroutines = 6
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					for iter := 0; iter < 4; iter++ {
						i := (g + iter) % len(imgs)
						got, err := fullInfer(m, w, imgs[i])
						if err != nil {
							errs[g] = err
							return
						}
						for j, v := range got.Data() {
							if math.Abs(float64(v-wants[i].Data()[j])) > 1e-4 {
								errs[g] = fmt.Errorf("goroutine %d iter %d: output[%d] = %v, want %v",
									g, iter, j, v, wants[i].Data()[j])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
