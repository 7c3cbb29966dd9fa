package optimizer

// ScaleBytes applies a fitted storage factor f (Params.StorageScale) to a
// byte quantity; f <= 0 and f == 1 are the identity and return v untouched,
// so unprofiled paths stay bit-exact.
func ScaleBytes(v int64, f float64) int64 {
	if f <= 0 || f == 1 {
		return v
	}
	return int64(float64(v) * f)
}
