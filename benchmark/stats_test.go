package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// 1 000 samples: exactly 10 lie beyond the p99, the sample floor
	// the latency windows are sized for.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The spread rule is defined on Python's statistics.quantiles(xs, n=4);
// these expectations were produced by it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles(10,20) = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 9, 3, 7})
	if q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles(1,3,5,7,9) = %v %v %v, want 2 5 8", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSummarizeWindows(t *testing.T) {
	window := func(base float64) []float64 {
		w := make([]float64, 100)
		for i := range w {
			w[i] = base + float64(i)/100 // p50 = base+0.49, p99 = base+0.98
		}
		return w
	}
	ones := []float64{1, 1, 1, 1, 1}
	windows := [][]float64{window(40), window(2), window(50), window(1), window(60)}
	stats, p50, p99 := summarizeWindows(windows, ones)
	if len(stats) != 5 || stats[2].N != 100 || math.Abs(stats[2].P99-50.98) > 1e-9 {
		t.Fatalf("window stats = %+v", stats)
	}
	// The median of the five window values, so a regression that shows
	// in three of five windows moves the reported number.
	if math.Abs(p50-40.49) > 1e-9 || math.Abs(p99-40.98) > 1e-9 {
		t.Errorf("p50 %v p99 %v, want 40.49 40.98", p50, p99)
	}
	// Only a window in which nothing was due has no value.
	stats, p50, _ = summarizeWindows([][]float64{window(1), nil, window(3)}, ones)
	if stats[1].N != 0 || math.Abs(p50-2.49) > 1e-9 {
		t.Errorf("p50 with an empty window = %v (stats %+v), want 2.49", p50, stats)
	}
	// A window measured while the host ran 2x slow counts at half its
	// value; the window stats keep what was measured.
	stats, p50, _ = summarizeWindows([][]float64{window(8), window(4), window(8)}, []float64{2, 1, 2})
	if math.Abs(p50-8.49/2) > 1e-9 || math.Abs(stats[0].P50-8.49) > 1e-9 || stats[0].HostFactor != 2 {
		t.Errorf("normalised p50 = %v (stats %+v), want %v", p50, stats, 8.49/2)
	}
}

func TestSummarizeClosed(t *testing.T) {
	win := func(ops int, cpuUS, factor float64) closedWindow {
		return closedWindow{Elapsed: time.Second, GoodOps: ops, CPUTicks: uint64(float64(ops) * cpuUS / 1e6 * clockTick), HostFactor: factor}
	}
	// The host runs a quarter slower in five of eight windows and the
	// calibration slices say so: the medians read as at reference speed.
	var wins []closedWindow
	for _, slow := range []float64{1, 1.25, 1, 1.25, 1.25, 1, 1.25, 1.25} {
		wins = append(wins, win(int(1e6/slow), 5*slow, slow))
	}
	good, cpu := summarizeClosed(wins)
	if math.Abs(good-1e6) > 2 || math.Abs(cpu-5) > 0.01 {
		t.Errorf("goodput %v cpu %v, want 1000000 5", good, cpu)
	}
	// The server runs a quarter slower in five of eight windows on a
	// steady host: the medians follow it.
	wins = wins[:0]
	for _, slow := range []float64{1, 1.25, 1, 1.25, 1.25, 1, 1.25, 1.25} {
		wins = append(wins, win(int(1e6/slow), 5*slow, 1))
	}
	good, cpu = summarizeClosed(wins)
	if math.Abs(good-8e5) > 1 || math.Abs(cpu-6.25) > 0.01 {
		t.Errorf("goodput %v cpu %v, want 800000 6.25", good, cpu)
	}
	// A window in which nothing succeeded is the worst case, not absent:
	// three stalled windows of eight pull the medians toward them...
	wins = wins[:0]
	for i := 0; i < 8; i++ {
		if i < 3 {
			wins = append(wins, closedWindow{Elapsed: time.Second, CPUTicks: 7, HostFactor: 1})
			continue
		}
		wins = append(wins, win(1000000+i, 5, 1))
	}
	good, cpu = summarizeClosed(wins)
	if good != 1000003.5 || math.IsInf(cpu, 1) || cpu < 4.9 {
		t.Errorf("with 3 stalled windows: goodput %v cpu %v, want 1000003.5 and a finite cpu", good, cpu)
	}
	// ...and four of eight leave no CPU per op to report.
	wins[3] = closedWindow{Elapsed: time.Second, HostFactor: 1}
	good, cpu = summarizeClosed(wins)
	if good >= 1000004 || !math.IsInf(cpu, 1) {
		t.Errorf("with 4 stalled windows: goodput %v cpu %v, want the run refused", good, cpu)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 = %v", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 = %v", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement must be negative, got %v", got)
	}
}
