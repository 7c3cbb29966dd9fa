package main

import (
	"reflect"
	"testing"
)

func TestSequenceIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range Workloads {
		preA, seqA := Sequence(w, 7, 200)
		preB, seqB := Sequence(w, 7, 200)
		if !reflect.DeepEqual(preA, preB) || !reflect.DeepEqual(seqA, seqB) {
			t.Errorf("%s: same seed gave different sequences", w.Name)
		}
		_, other := Sequence(w, 8, 200)
		if reflect.DeepEqual(seqA, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.Name)
		}
		// The traced run replays a prefix of what the measured run sends.
		_, short := Sequence(w, 7, TracedRequests)
		if !reflect.DeepEqual(short, seqA[:TracedRequests]) {
			t.Errorf("%s: a shorter sequence is not a prefix of a longer one", w.Name)
		}
		if len(preA) != w.Prewarm || len(seqA) != 200 {
			t.Errorf("%s: got %d prewarm and %d requests", w.Name, len(preA), len(seqA))
		}
		for _, r := range append(preA, seqA...) {
			if r.Seed <= 0 || r.Model != w.Model || r.Rows != w.Rows || r.Layers != w.Layers || r.Dataset != "foods" {
				t.Fatalf("%s: malformed request %+v", w.Name, r)
			}
		}
	}
}

func TestSequenceShapesSharingPerWorkload(t *testing.T) {
	distinct := func(reqs []Request) int {
		seen := map[int64]bool{}
		for _, r := range reqs {
			seen[r.Seed] = true
		}
		return len(seen)
	}
	byName := func(name string) Workload {
		w, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	pre, seq := Sequence(byName("cold-distinct"), 3, 300)
	if n := distinct(append(pre, seq...)); n != len(pre)+300 {
		t.Errorf("cold-distinct reuses fingerprints: %d distinct of %d", n, len(pre)+300)
	}

	pre, seq = Sequence(byName("warm-repeat"), 3, 300)
	if distinct(seq) != 4 || distinct(append(pre, seq...)) != 4 {
		t.Errorf("warm-repeat must cycle exactly its 4 prewarmed fingerprints")
	}
	for i := range seq {
		if seq[i].Seed != seq[i%4].Seed {
			t.Fatalf("warm-repeat request %d breaks the cycle", i)
		}
	}

	w := byName("mixed-churn")
	_, seq = Sequence(w, 3, 2000)
	count := map[int64]int{}
	for _, r := range seq {
		count[r.Seed]++
	}
	hot, repeats := 0, 0
	for _, n := range count {
		if n > 1 {
			hot++
			repeats += n
		}
	}
	if share := float64(repeats) / 2000; hot != w.Hot || share < 0.55 || share > 0.65 {
		t.Errorf("mixed-churn: %d hot fingerprints carrying %.2f of requests, want %d and about %.2f",
			hot, share, w.Hot, w.HotShare)
	}

	pre, seq = Sequence(byName("shared-pairs"), 3, 300)
	for i := 0; i+1 < len(seq); i += 2 {
		if seq[i] != seq[i+1] {
			t.Fatalf("shared-pairs round %d sends two different requests", i/2)
		}
	}
	if distinct(seq) != 150 || pre[0] != pre[1] {
		t.Errorf("shared-pairs: every round needs a new fingerprint, sent twice")
	}
}
