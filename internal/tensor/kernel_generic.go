//go:build !amd64 || purego

package tensor

// Builds without the assembly body: kernelGo serves every tile.

func asmSupported() bool { return false }

func kernelAsm(*tile) { panic("tensor: no assembly kernel in this build") }
