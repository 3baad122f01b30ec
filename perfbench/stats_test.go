package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0, 1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 100, 10},
		{[]float64{10, 20, 30}, 25, 15},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Name: "root", Start: 0, End: 100},
		{Parent: 0, Name: "a", Start: 10, End: 40},
		{Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{Parent: 0, Name: "c", Start: 90, End: 120}, // reaches past root
		{Parent: 1, Name: "a1", Start: 15, End: 20},
		{Parent: -1, Name: "leaf", Start: 5, End: 8},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // children cover [10,60] and [90,100]
		30 - 5,
		30,
		30,
		5,
		3,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}
