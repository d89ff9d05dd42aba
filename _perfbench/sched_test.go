package main

import (
	"math"
	"testing"
)

func TestScheduleDeterministicFromSeed(t *testing.T) {
	a, b, c := newSchedule(42, 10_000), newSchedule(42, 10_000), newSchedule(43, 10_000)
	same := true
	for i := 0; i < 1000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("arrival %d: %d vs %d for the same seed", i, x, y)
		}
		if x != z {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 gave the same schedule")
	}
}

func TestScheduleRateAndOrder(t *testing.T) {
	s := newSchedule(9, 10_000)
	var last int64
	const n = 200_000
	for i := 0; i < n; i++ {
		o := s.next()
		if o < last {
			t.Fatalf("arrival %d at %d before the previous one at %d", i, o, last)
		}
		last = o
	}
	mean := float64(last) / n // ns between arrivals
	if math.Abs(mean-1e5)/1e5 > 0.01 {
		t.Errorf("mean inter-arrival %.0f ns, want 100000 ±1%%", mean)
	}
}

func TestItemsDeterministicFromSeed(t *testing.T) {
	a := makeItem(5, 0, 17, wireSize(5, 17), 1234)
	b := makeItem(5, 0, 17, wireSize(5, 17), 1234)
	if string(a) != string(b) {
		t.Fatal("same seed and id gave different items")
	}
	if itemID(a) != 17 || itemStamp(a) != 1234 {
		t.Errorf("header = id %d stamp %d", itemID(a), itemStamp(a))
	}
	for _, f := range chainFns {
		f(a)
	}
	if itemID(a) != 17 || itemStamp(a) != 1234 {
		t.Error("filters changed the header")
	}
}
