//go:build !amd64 || purego

package tensor

// Builds without the assembly bodies: kernelGo serves every tile and
// maxPool2x2Go every pooled row.

func asmSupported() bool { return false }

func kernelAsm(*tile) { panic("tensor: no assembly kernel in this build") }

func maxPool2x2Asm([]float32, []float32, int, int, int) {
	panic("tensor: no assembly max-pool in this build")
}
