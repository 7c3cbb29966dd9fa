package tensor

// UseKernelBody switches the package to the named micro-kernel body for a
// test in the external tensor_test package and returns the function that
// switches back; ok is false when this build or CPU cannot run that body.
func UseKernelBody(name string) (restore func(), ok bool) {
	for _, b := range kernelBodies() {
		if b.name == name {
			return b.use(), true
		}
	}
	return nil, false
}
