package tensor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cnn"
	"repro/internal/tensor"
)

// featureGoldens is the SHA-256 of every tiny roster model's raw feature-layer
// outputs (weight seed 7, one fixed image; see featureDigest), per kernel
// body. A change to the convolution path that only moves data — a new B
// layout, blocking or panel order — must leave them where they are; one that
// changes the arithmetic (the reduction order, a new body) changes them on
// purpose and says so.
var featureGoldens = map[string]map[string]string{
	"purego": {
		"tiny-alexnet":  "3fde34c01df7d22e67ed1a248ca481e87249062e212b92b71aad31909c00a6e9",
		"tiny-vgg16":    "d6eb915037f544a343bea38e514dfdb2affecbeb4d231162c466138b4a210849",
		"tiny-resnet50": "9fa54a9f225a832f5dd69fa12b4842b0e39fe67a42452e6bb033c496433c1c5c",
		"tiny-densenet": "2a5ce48893553b6cf1cea40647b68aa6b3860a956605a4cc5485afadca122f40",
	},
	"avx2-fma": {
		"tiny-alexnet":  "c591f152f08017e764b198a28f7ab57b9788693fd6b3165a98f7b600a8ee10a6",
		"tiny-vgg16":    "66bd7199b295271170dfccba59b594dded1c9c8f329dafa7037924945b18dfd6",
		"tiny-resnet50": "cedf9c96612c5c407e17798f21ed653d47fad634f8e39c2f5fbc7969c861433e",
		"tiny-densenet": "1b8c7c262fee74c3e23bfa737859027a9f0af7d25e7afb90c41603df45ae0473",
	},
}

// featureDigest runs the model from its input to each feature layer in turn
// and hashes every feature layer's output, bottom to top, as little-endian
// float32 bits.
func featureDigest(t *testing.T, name string) string {
	t.Helper()
	m, err := cnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.RealizeWeights(7)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(m.InputShape...)
	rng := rand.New(rand.NewSource(1))
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	h := sha256.New()
	var word [4]byte
	from := 0
	for _, fl := range m.FeatureLayers {
		if x, err = m.PartialInfer(w, x, from, fl.LayerIndex); err != nil {
			t.Fatalf("%s to %s: %v", name, fl.Name, err)
		}
		for _, v := range x.Data() {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
		from = fl.LayerIndex + 1
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFeatureGoldens holds the tiny roster's feature-layer outputs bit for
// bit on each kernel body. The pure-Go body's golden is an amd64 one: other
// GOARCHes may fuse its multiply-adds, which rounds differently.
func TestFeatureGoldens(t *testing.T) {
	for _, body := range []string{"purego", "avx2-fma"} {
		t.Run(body, func(t *testing.T) {
			if runtime.GOARCH != "amd64" {
				t.Skipf("goldens are recorded on amd64; %s may round differently", runtime.GOARCH)
			}
			restore, ok := tensor.UseKernelBody(body)
			if !ok {
				t.Skipf("the %s body is not available in this build or on this CPU", body)
			}
			defer restore()
			for _, name := range []string{"tiny-alexnet", "tiny-vgg16", "tiny-resnet50", "tiny-densenet"} {
				if got, want := featureDigest(t, name), featureGoldens[body][name]; got != want {
					t.Errorf("%s %s: feature digest %s, golden %s", body, name, got, want)
				}
			}
		})
	}
}
