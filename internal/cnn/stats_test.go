package cnn

import (
	"reflect"
	"sync"
	"testing"
)

// TestRosterStatsMemoized holds each roster entry's memoized Stats to a
// fresh walk of the architecture, and checks every ByName model of one
// entry shares them.
func TestRosterStatsMemoized(t *testing.T) {
	for _, name := range RosterNames() {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputeStats(m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := walkStats(m)
		if err != nil {
			t.Fatal(err)
		}
		if got == fresh {
			t.Fatalf("%s: the walk returned the memoized Stats itself", name)
		}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: memoized Stats %+v, fresh walk %+v", name, got, fresh)
		}
		again, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := ComputeStats(again); st != got {
			t.Errorf("%s: a second ByName model got other Stats", name)
		}
	}
	// A model built outside ByName is walked on every call.
	a, _ := ComputeStats(TinyAlexNet())
	b, _ := ComputeStats(TinyAlexNet())
	if a == b {
		t.Error("two models built outside ByName share one Stats")
	}
}

// TestRosterStatsConcurrentFirstUse races the first ComputeStats of one
// roster entry from 8 goroutines: all must get the same Stats.
func TestRosterStatsConcurrentFirstUse(t *testing.T) {
	e := &rosterEntry{name: "tiny-resnet50", build: TinyResNet50}
	const n = 8
	got := make([]*Stats, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := e.build()
			m.entry = e
			st, err := ComputeStats(m)
			if err != nil {
				t.Error(err)
			}
			got[i] = st
		}()
	}
	wg.Wait()
	for i, st := range got {
		if st == nil || st != got[0] {
			t.Fatalf("goroutine %d got Stats %p, goroutine 0 got %p", i, st, got[0])
		}
	}
}
