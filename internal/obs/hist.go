package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds exact zeros, bucket i (1..38) holds values in
// [2^(i-1), 2^i - 1], and the last bucket is the +Inf overflow. For
// nanosecond latencies bucket 38 tops out near 4.6 minutes; for
// micro-CTR values (ctr * 1e6) the populated range ends around bucket
// 20 — both comfortably inside the array.
const NumBuckets = 40

// Histogram is a log2-bucketed concurrent histogram of uint64 samples:
// a fixed array of atomic bucket counters plus an atomic sum and
// count. Record is wait-free and allocation-free, so histograms embed
// directly in hot structs (engine observer, WAL, connection loops)
// with no indirection and no setup. The zero value is ready to use.
//
// Log2 buckets trade resolution for speed: each bucket spans a factor
// of two, which is exactly the granularity latency SLOs and drift
// detection care about, and the bucket index is one bits.Len64.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// bucketOf is the bucket a sample lands in.
func bucketOf(v uint64) int {
	return min(bits.Len64(v), NumBuckets-1)
}

// Record adds one sample.
//
//mb:noalloc
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Tally is a goroutine-private delta of a Histogram: the same buckets,
// sum and count as plain counters. A loop that records a sample per
// item into a histogram other goroutines also record into tallies
// instead, and hands the tally over with Histogram.Absorb when it is
// done, so the loop writes no cache line another core writes. The zero
// value is an empty tally; a Tally must not be shared.
type Tally struct {
	buckets [NumBuckets]uint64
	sum     uint64
	count   uint64
}

// Record adds one sample to the tally.
//
//mb:noalloc
func (t *Tally) Record(v uint64) {
	t.buckets[bucketOf(v)]++
	t.sum += v
	t.count++
}

// Absorb adds t's samples to h, touching only the buckets t holds, and
// empties t. An empty tally writes nothing.
//
//mb:noalloc
func (h *Histogram) Absorb(t *Tally) {
	if t.count == 0 {
		return
	}
	for i := range t.buckets {
		if n := t.buckets[i]; n != 0 {
			h.buckets[i].Add(n)
			t.buckets[i] = 0
		}
	}
	h.sum.Add(t.sum)
	h.count.Add(t.count)
	t.sum, t.count = 0, 0
}

// RecordSince records the nanoseconds elapsed since t0.
//
//mb:noalloc
func (h *Histogram) RecordSince(t0 time.Time) {
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures the histogram's current state. Concurrent Records
// may land between bucket loads — the usual monotonic-counter
// tolerance every scrape in this repo accepts — but each captured
// counter is individually consistent and never decreases across
// snapshots.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Snapshot is a point-in-time copy of a Histogram: a plain value type
// that diffs and renders without touching the live atomics.
type Snapshot struct {
	Buckets [NumBuckets]uint64
	Sum     uint64
	Count   uint64
}

// upperBound returns bucket i's inclusive upper bound in raw units;
// the last bucket returns +Inf.
func upperBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<i - 1)
}

// NormL1 is the drift distance between two snapshots: the L1 distance
// between their normalised bucket distributions, in [0, 2]. 0 means
// identical shape (whatever the sample counts), 2 means disjoint
// support. It is symmetric, needs no smoothing, and is insensitive to
// traffic volume — exactly the properties a publish-time baseline
// comparison needs. Returns 0 when either snapshot is empty: no
// evidence is not evidence of drift.
func NormL1(a, b Snapshot) float64 {
	if a.Count == 0 || b.Count == 0 {
		return 0
	}
	an, bn := float64(a.Count), float64(b.Count)
	var d float64
	for i := range a.Buckets {
		d += math.Abs(float64(a.Buckets[i])/an - float64(b.Buckets[i])/bn)
	}
	return d
}

// CTRScale converts Record units of CTR histograms back to
// probability at exposition time.
const CTRScale = 1e-6

// CTRUnits maps a predicted CTR in [0, 1] to the histogram's integer
// domain (micro-CTR). Log2 buckets over micro-units resolve the
// decades that matter — 1e-6 through 1 — into ~20 buckets.
//
//mb:noalloc
func CTRUnits(ctr float64) uint64 {
	if ctr <= 0 {
		return 0
	}
	if ctr >= 1 {
		return 1e6
	}
	return uint64(ctr*1e6 + 0.5)
}
