package main

import "testing"

func TestSelfTimeIsDurationMinusWhatChildrenCover(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a: 30..40 counts once
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past its parent: only 90..100 counts
		{ID: 5, Parent: 2, Name: "a.child", StartNs: 10, EndNs: 25},
		{ID: 6, Name: "probe:x", StartNs: 200, EndNs: 230}, // no parent, no children
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 15, 3: 30, 4: 30, 5: 15, 6: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	// Within a tree of nested, non-overlapping spans the self times add up
	// to the root's duration.
	tree := []Span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 5, EndNs: 50},
		{ID: 3, Parent: 2, StartNs: 10, EndNs: 20},
		{ID: 4, Parent: 1, StartNs: 50, EndNs: 95},
	}
	var sum int64
	for _, v := range selfTimes(tree) {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestRecorderKeepsParentAndRequest(t *testing.T) {
	r := NewRecorder()
	root := r.Start("request", 0, 7)
	child := r.Start("data.Generate", root, 7)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Request != 7 || spans[1].Name != "data.Generate" {
		t.Fatalf("unexpected spans %+v", spans)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if spans[1].StartNs < spans[0].StartNs || spans[1].EndNs > spans[0].EndNs {
		t.Errorf("child %+v not inside parent %+v", spans[1], spans[0])
	}
}
