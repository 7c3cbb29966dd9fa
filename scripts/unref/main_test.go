package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestFixture runs unref over testdata/repo, a module laid out like this
// repository: internal/a declares one name per case, cmd/app and its tests
// use them, and bench/ is a second module reaching internal/a through a
// replace.
func TestFixture(t *testing.T) {
	unref, total, err := check("testdata/repo", "testdata/repo/bench")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, u := range unref {
		got = append(got, u[strings.LastIndex(u, " ")+1:])
	}
	sort.Strings(got)
	want := []string{
		"a.CmdTestOnly",   // referenced only by another package's tests
		"a.TestOnly",      // referenced only by its own package's tests
		"a.Uncalled.Twin", // shares its name with the called Called.Twin
	}
	// Not reported: Square.Area (reached through Shape), Label.String
	// (reached through fmt), Called.Reference and Harness (//vista:keep) and
	// Remote (called from the bench module).
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unref = %q, want %q", unref, want)
	}
	if total != 12 {
		t.Errorf("linted %d names, want the fixture's 12", total)
	}
}
