package a

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 3 {
		t.Fail()
	}
}
