package lru

import (
	"fmt"
	"testing"
)

// victim is one evicted-callback invocation.
type victim struct {
	key    string
	val    int
	charge int64
}

// record returns a cache over the given budget whose evictions are appended
// to *got.
func record(budget int64, got *[]victim) *Cache[string, int] {
	return New[string, int](budget, func(k string, v int, charge int64) {
		*got = append(*got, victim{k, v, charge})
	})
}

// keys lists the cache's keys as Each visits them (newest first).
func keys(c *Cache[string, int]) string {
	var out []string
	c.Each(func(k string, _ int, _ int64) { out = append(out, k) })
	return fmt.Sprint(out)
}

func TestEvictsOldestUntilChargesFit(t *testing.T) {
	var got []victim
	c := record(10, &got)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	c.Add("c", 3, 2)
	if len(got) != 0 || c.Used() != 10 || c.Len() != 3 {
		t.Fatalf("at the budget: evicted %v, used %d, len %d", got, c.Used(), c.Len())
	}
	// "a" is the oldest, but a refresh makes "b" the next to go; one 5-unit
	// entry needs two victims' worth of room.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Add("d", 4, 5)
	want := []victim{{"b", 2, 4}, {"c", 3, 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
	if c.Used() != 9 || keys(c) != "[d a]" {
		t.Fatalf("after eviction: used %d, order %s", c.Used(), keys(c))
	}
	if _, ok := c.Peek("b"); ok {
		t.Error("an evicted key is still present")
	}
}

func TestUnlimitedBudgetNeverEvicts(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		var got []victim
		c := record(budget, &got)
		for i := 0; i < 1000; i++ {
			c.Add(fmt.Sprint(i), i, 1<<40)
		}
		if len(got) != 0 || c.Len() != 1000 || c.Used() != 1000<<40 {
			t.Errorf("budget %d: evicted %d, len %d, used %d", budget, len(got), c.Len(), c.Used())
		}
	}
}

func TestAddReplacesWithoutEvictedCallback(t *testing.T) {
	var got []victim
	c := record(10, &got)
	c.Add("a", 1, 3)
	c.Add("b", 2, 3)
	c.Add("a", 10, 5) // replace: new value and charge, and now the newest
	if len(got) != 0 {
		t.Fatalf("replacing called evicted: %v", got)
	}
	if v, _ := c.Peek("a"); v != 10 || c.Len() != 2 || c.Used() != 8 || keys(c) != "[a b]" {
		t.Fatalf("after replace: a=%d len %d used %d order %s", v, c.Len(), c.Used(), keys(c))
	}
	// A growing replacement evicts the older entries to fit.
	c.Add("a", 11, 9)
	if fmt.Sprint(got) != fmt.Sprint([]victim{{"b", 2, 3}}) || c.Used() != 9 {
		t.Fatalf("growing replace: evicted %v, used %d", got, c.Used())
	}
	// Remove is not an eviction either.
	if !c.Remove("a") || c.Remove("a") || len(got) != 1 || c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("Remove: evicted %v, used %d, len %d", got, c.Used(), c.Len())
	}
}

func TestPeekDoesNotRefresh(t *testing.T) {
	var got []victim
	c := record(2, &got)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	c.Add("c", 3, 1)
	if len(got) != 1 || got[0].key != "a" {
		t.Fatalf("evicted %v, want a: Peek must not refresh", got)
	}
	if _, ok := c.Peek("missing"); ok {
		t.Error("Peek found a missing key")
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("Get found a missing key")
	}
}

func TestEachAndOldestOrder(t *testing.T) {
	c := New[string, int](0, nil)
	if _, _, ok := c.Oldest(); ok {
		t.Fatal("Oldest on an empty cache reported an entry")
	}
	for i, k := range []string{"a", "b", "c", "d"} {
		c.Add(k, i, int64(i))
	}
	c.Get("b")
	if got := keys(c); got != "[b d c a]" {
		t.Fatalf("Each order = %s, want newest first [b d c a]", got)
	}
	var charges []int64
	c.Each(func(_ string, _ int, charge int64) { charges = append(charges, charge) })
	if fmt.Sprint(charges) != "[1 3 2 0]" {
		t.Errorf("Each charges = %v, want [1 3 2 0]", charges)
	}
	if k, v, ok := c.Oldest(); !ok || k != "a" || v != 0 {
		t.Fatalf("Oldest = %s, %d, %v; want a", k, v, ok)
	}
	// Oldest does not refresh: it names the same entry until that one moves.
	if k, _, _ := c.Oldest(); k != "a" {
		t.Fatalf("second Oldest = %s, want a", k)
	}
	c.Remove("a")
	if k, _, _ := c.Oldest(); k != "c" {
		t.Errorf("Oldest after removing a = %s, want c", k)
	}
}
