// Package tensor implements dense float32 tensors and the tensor operations
// needed for CNN inference, following the data model of Vista (SIGMOD 2020)
// Section 3.1: Tensor (Definition 3.1), TensorList (Definition 3.2), and
// TensorOp-style functions (Definition 3.3) such as flattening
// (Definition 3.5) and pooling.
//
// Tensors are stored row-major. Image tensors use CHW layout
// (channels, height, width), matching the convention used throughout
// internal/cnn, and a batch of N images is one (C, N, H, W) tensor that
// every layer op runs over in one call (batch.go); a CHW image is the batch
// of one. SizeBytes reports a tensor's accounting size — the number
// the engine's Storage/User Memory pools charge when tensors flow through
// tables — and Encode/Decode give image tensors their stored form: a format
// word, the shape, then the float32 payload uncompressed.
//
// Convolution is a GEMM over the convolution's zero-padded input, read in
// place through a table of per-reduction-row offsets rather than copied into
// a column matrix (gemm.go); its arithmetic is one 4×16 micro-kernel
// (kernel.go) with two bodies: AVX2+FMA assembly on amd64 CPUs that have it,
// and the same tile in pure Go everywhere else and under -tags purego.
// KernelName reports which one a process runs; the two agree to 1e-4, not
// bit for bit. Max pooling with 2×2 windows at stride 2 — every pool of
// tiny-vgg16, tiny-alexnet and tiny-densenet — is a second routine behind the
// same choice: an AVX2 body eight outputs per step, and a Go body for the
// tail and for every other build. max is exact, so those two bodies agree
// bit for bit; every other pooling spec runs a windowed Go loop (ops.go).
package tensor
