package main

import (
	"testing"

	"repro/internal/a"
)

func TestApp(t *testing.T) {
	if a.CmdTestOnly()+a.Harness() != 13 {
		t.Fail()
	}
}
