package main

import (
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {99, 10}, {90, 9}, {10, 1}, {0.1, 1}, {100, 10}, {99.9, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v", got)
	}
	// 1,000 samples: p99.9 is the 999th value and exactly one lies beyond.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	p := percentile(big, 99.9)
	if p != 999 || beyond(big, p) != 1 {
		t.Errorf("p99.9 = %v with %d beyond, want 999 with 1", p, beyond(big, p))
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	reps := []trainRep{{TrainS: 1.4}, {TrainS: 1.0}, {TrainS: 1.1}}
	if got := medianOf(reps, func(r trainRep) float64 { return r.TrainS }); got != 1.1 {
		t.Errorf("medianOf = %v", got)
	}
}

// The window reduction: a metric is the median of its per-window values,
// so dips covering fewer than half the windows do not move it, and the
// calm-third diagnostic pools the highest-throughput windows only.
func TestWindowReduction(t *testing.T) {
	stats := make([]windowStat, windows)
	for k := range stats {
		stats[k] = windowStat{Seconds: 1, Responses: 5000, CapacityRPS: 5000}
	}
	for _, k := range []int{0, 3, 4, 8, 11} { // a dip in 5 of 12 windows
		stats[k] = windowStat{Seconds: 1, Responses: 3000, CapacityRPS: 3000}
	}
	if got := medianOf(stats, func(w windowStat) float64 { return w.CapacityRPS }); got != 5000 {
		t.Errorf("median over windows = %v, want 5000", got)
	}
	for k := range stats[:9] { // now 9 of 12 dip
		stats[k] = windowStat{Seconds: 1, Responses: 3000, CapacityRPS: 3000}
	}
	stats[9] = windowStat{Seconds: 2, Responses: 10000, CapacityRPS: 5000}
	if got := medianOf(stats, func(w windowStat) float64 { return w.CapacityRPS }); got != 3000 {
		t.Errorf("median over windows = %v, want 3000", got)
	}
	// The four fastest: window 9 (2 s), window 10 and two dipped ones.
	if got := calmCapacity(stats); got != (10000+5000+3000+3000)/5.0 {
		t.Errorf("calm-third capacity = %v, want 4200", got)
	}
}

func TestSortedFloatsScales(t *testing.T) {
	got := sortedFloats([]int64{3000, 1000, 2000}, 1e3)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("sortedFloats = %v", got)
	}
}

func TestWorsening(t *testing.T) {
	if d := worsening(100, 90, "higher"); d != 0.1 {
		t.Errorf("higher-is-better drop = %v", d)
	}
	if d := worsening(100, 110, "lower"); d != 0.1 {
		t.Errorf("lower-is-better rise = %v", d)
	}
	if d := worsening(100, 110, "higher"); d >= 0 {
		t.Errorf("an improvement must be negative, got %v", d)
	}
}
