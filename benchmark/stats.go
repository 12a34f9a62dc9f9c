package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest
// rank: the smallest value with at least q of the samples at or below
// it. xs must be sorted ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the middle two for an
// even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which
// is what the acceptance rule computes spreads from. It needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median,
// the repeatability figure every bound is checked against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// windowStat is one open-phase window's latency summary, as measured,
// and how fast the host was running around the window (closedWindow
// has the same field).
type windowStat struct {
	N          int
	P50, P99   float64 // ms
	HostFactor float64
}

// summarizeWindows turns latency samples (ms) already assigned to
// windows into per-window p50/p99 and returns the median of the window
// values, each divided by its window's host factor first — the
// reported lat_p50_ms / lat_p99_ms. Every request the schedule called
// for has a sample in the window it was due in (a request never sent
// carries the time it had waited by the hard stop), so a stalled
// window is not empty: it holds its backlog's latencies and counts in
// the median like any other. Only a window in which nothing was due
// has no value.
func summarizeWindows(windows [][]float64, hostFactors []float64) (stats []windowStat, p50, p99 float64) {
	var p50s, p99s []float64
	for w, lat := range windows {
		if len(lat) == 0 {
			stats = append(stats, windowStat{HostFactor: hostFactors[w]})
			continue
		}
		s := append([]float64(nil), lat...)
		sort.Float64s(s)
		ws := windowStat{N: len(s), P50: percentile(s, 0.50), P99: percentile(s, 0.99), HostFactor: hostFactors[w]}
		stats = append(stats, ws)
		p50s = append(p50s, ws.P50/ws.HostFactor)
		p99s = append(p99s, ws.P99/ws.HostFactor)
	}
	return stats, median(p50s), median(p99s)
}
