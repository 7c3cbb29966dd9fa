package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {91, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
	if median(v) != 5.5 {
		t.Errorf("median = %v, want 5.5", median(v))
	}
}

// A percentile is a tail only with ten samples beyond it, so p90 needs 100.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{{19, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}} {
		if got := supportedTail(c.samples); got != c.want {
			t.Errorf("supportedTail(%d) = p%v, want p%v", c.samples, got, c.want)
		}
	}
}

// The spread must be the one Python's statistics.quantiles(values, n=4)
// gives: for 1..10 the quartiles are 2.75 and 8.25.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
