package main

import (
	"math/rand"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/cnn"
	"repro/internal/tensor"
)

// Machine is the header of every report: what the numbers were measured on,
// and the box's own ceilings so kernel rates print as a share of them.
type Machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitCommit is "unknown" outside a git checkout (the driver's).
	GitCommit string `json:"git_commit"`
	Clients   int    `json:"clients"`
	// PeakGemmGflops and CopyGBPerS come from a 2-second probe through
	// tensor's public API; 0 when the invocation skipped the probe.
	PeakGemmGflops float64 `json:"peak_gemm_gflops"`
	CopyGBPerS     float64 `json:"copy_gb_per_s"`
}

func machineHeader(root string, probe bool) Machine {
	m := Machine{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown", Clients: Clients,
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	if probe {
		m.PeakGemmGflops = probeGemm(time.Second)
		m.CopyGBPerS = probeCopy(time.Second)
	}
	return m
}

func randomTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.Float32() - 0.5
	}
	return t
}

// timeConv runs one convolution reps times and returns FLOPs done and time
// taken. The output shape comes from the spec, so FLOPs are computed, not
// counted by the kernel.
func timeConv(rng *rand.Rand, spec tensor.Conv2DSpec, in tensor.Shape, reps int) (flops float64, took time.Duration) {
	out, err := spec.OutShape(in)
	if err != nil {
		return 0, 0
	}
	x := randomTensor(rng, in...)
	w := randomTensor(rng, spec.WeightCount()).Data()
	bias := make([]float32, spec.OutChannels)
	start := time.Now()
	for i := 0; i < reps; i++ {
		y, err := tensor.Conv2D(x, spec, w, bias)
		if err != nil {
			return 0, 0
		}
		tensor.Recycle(y)
	}
	perCall := 2 * float64(spec.Kernel*spec.Kernel*spec.InChannels) * float64(out.NumElements())
	return perCall * float64(reps), time.Since(start)
}

// probeGemm measures the blocked GEMM's best rate on this box: a 1x1
// convolution is a plain (out x in) by (in x pixels) matrix product, sized
// here to keep the kernel in its steady state.
func probeGemm(budget time.Duration) float64 {
	rng := rand.New(rand.NewSource(1))
	spec := tensor.Conv2DSpec{InChannels: 256, OutChannels: 256, Kernel: 1, Stride: 1}
	best := 0.0
	for start := time.Now(); time.Since(start) < budget; {
		flops, took := timeConv(rng, spec, tensor.Shape{256, 32, 32}, 4)
		if took > 0 {
			best = max(best, flops/took.Seconds()/1e9)
		}
	}
	return best
}

// probeCopy measures memory copy bandwidth (bytes read plus written)
// between two tensors larger than the last-level cache.
func probeCopy(budget time.Duration) float64 {
	src, dst := tensor.New(16<<20), tensor.New(16<<20) // 64 MiB of float32 each
	best := 0.0
	for start := time.Now(); time.Since(start) < budget; {
		t0 := time.Now()
		copy(dst.Data(), src.Data())
		best = max(best, 2*float64(dst.SizeBytes())/time.Since(t0).Seconds()/1e9)
	}
	return best
}

// convShapes lists every convolution of a model with its input shape,
// including the ones inside residual bottlenecks.
func convShapes(m *cnn.Model) (specs []tensor.Conv2DSpec, ins []tensor.Shape) {
	in := m.InputShape
	add := func(spec tensor.Conv2DSpec, in tensor.Shape) tensor.Shape {
		specs, ins = append(specs, spec), append(ins, in)
		out, _ := spec.OutShape(in)
		return out
	}
	for _, l := range m.Layers {
		switch l := l.(type) {
		case *cnn.Conv:
			add(l.Spec, in)
		case *cnn.BNConv:
			add(l.Spec, in)
		case *cnn.Bottleneck:
			// reduce, mid, expand, and the projection shortcut when the
			// block changes shape (cnn.Bottleneck.sublayers).
			c := in[0]
			s := add(tensor.Conv2DSpec{InChannels: c, OutChannels: l.Mid, Kernel: 1, Stride: 1}, in)
			s = add(tensor.Conv2DSpec{InChannels: l.Mid, OutChannels: l.Mid, Kernel: 3, Stride: l.Stride, Pad: 1}, s)
			add(tensor.Conv2DSpec{InChannels: l.Mid, OutChannels: 4 * l.Mid, Kernel: 1, Stride: 1}, s)
			if l.Project || l.Stride != 1 || c != 4*l.Mid {
				add(tensor.Conv2DSpec{InChannels: c, OutChannels: 4 * l.Mid, Kernel: 1, Stride: l.Stride}, in)
			}
		}
		out, err := l.OutShape(in)
		if err != nil {
			return specs, ins
		}
		in = out
	}
	return specs, ins
}

// probeModelConvs runs every convolution of m at its real shape and returns
// the achieved rate over all of them: what one image's conv work gets.
func probeModelConvs(m *cnn.Model) float64 {
	rng := rand.New(rand.NewSource(2))
	specs, ins := convShapes(m)
	var flops float64
	var took time.Duration
	for i := range specs {
		f, t := timeConv(rng, specs[i], ins[i], 8)
		flops, took = flops+f, took+t
	}
	if took == 0 {
		return 0
	}
	return flops / took.Seconds() / 1e9
}
