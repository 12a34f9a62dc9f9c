package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Record(0) // bucket 0
	h.Record(1) // bucket 1
	h.Record(2) // bucket 2
	h.Record(3) // bucket 2
	h.Record(4) // bucket 3
	h.Record(math.MaxUint64)

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	var wantSum uint64 = 0 + 1 + 2 + 3 + 4
	wantSum += math.MaxUint64 // wraps: matches the atomic adds
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	for i, want := range map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, NumBuckets - 1: 1} {
		if s.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(uint64(i))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestTallyAbsorb: samples tallied and then absorbed leave a histogram
// exactly as recording them directly would — every bucket, the sum and
// the count — on top of what it already held, and the absorb empties
// the tally.
func TestTallyAbsorb(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []uint64
	}{
		{"none", nil},
		{"zeros", []uint64{0, 0, 0}},
		{"one bucket", []uint64{64, 100, 127}},
		{"spread", []uint64{1, 2, 3, 4, 999, CTRUnits(0.01), CTRUnits(0.5), CTRUnits(1)}},
		{"overflow bucket", []uint64{1 << (NumBuckets - 2), 1 << (NumBuckets - 1), 1 << 62, math.MaxUint64}},
		{"sum wraps", []uint64{math.MaxUint64, math.MaxUint64, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var direct, absorbed Histogram
			direct.Record(7) // what the histogram held before
			absorbed.Record(7)
			var tl Tally
			for _, v := range tc.samples {
				direct.Record(v)
				tl.Record(v)
			}
			absorbed.Absorb(&tl)
			want := direct.Snapshot()
			if got := absorbed.Snapshot(); got != want {
				t.Fatalf("absorbed %+v,\nrecorded %+v", got, want)
			}
			if want.Count != uint64(1+len(tc.samples)) {
				t.Fatalf("count %d after %d samples", want.Count, 1+len(tc.samples))
			}
			if tl != (Tally{}) {
				t.Fatalf("Absorb left %+v in the tally", tl)
			}
			absorbed.Absorb(&tl) // the emptied tally adds nothing
			if got := absorbed.Snapshot(); got != want {
				t.Fatalf("absorbing the emptied tally moved the histogram: %+v", got)
			}
		})
	}
	// An empty tally does not touch the histogram at all, not even to add
	// zero: absorbing one into a nil histogram is safe.
	var empty Tally
	(*Histogram)(nil).Absorb(&empty)
}

func TestNormL1(t *testing.T) {
	var a, b Histogram
	if d := NormL1(a.Snapshot(), b.Snapshot()); d != 0 {
		t.Fatalf("empty NormL1 = %v, want 0", d)
	}
	for i := 0; i < 100; i++ {
		a.Record(100)
		b.Record(100)
	}
	if d := NormL1(a.Snapshot(), b.Snapshot()); d != 0 {
		t.Fatalf("identical NormL1 = %v, want 0", d)
	}
	// Same shape at 10x the volume: still zero — drift is about
	// distribution, not traffic.
	for i := 0; i < 900; i++ {
		b.Record(100)
	}
	if d := NormL1(a.Snapshot(), b.Snapshot()); d != 0 {
		t.Fatalf("scaled NormL1 = %v, want 0", d)
	}
	// Disjoint support: maximal distance 2.
	var c, e Histogram
	c.Record(1)
	e.Record(1 << 20)
	if d := NormL1(c.Snapshot(), e.Snapshot()); math.Abs(d-2) > 1e-12 {
		t.Fatalf("disjoint NormL1 = %v, want 2", d)
	}
}

func TestCTRUnits(t *testing.T) {
	for _, tc := range []struct {
		ctr  float64
		want uint64
	}{{-1, 0}, {0, 0}, {1e-6, 1}, {0.5, 500000}, {1, 1e6}, {2, 1e6}} {
		if got := CTRUnits(tc.ctr); got != tc.want {
			t.Errorf("CTRUnits(%v) = %d, want %d", tc.ctr, got, tc.want)
		}
	}
}

func TestRecordSince(t *testing.T) {
	var h Histogram
	h.RecordSince(time.Now().Add(-time.Millisecond))
	h.RecordSince(time.Now().Add(time.Hour)) // clock skew clamps to 0
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.Buckets[0] != 1 {
		t.Fatalf("negative elapsed must clamp into bucket 0, got %v", s.Buckets[0])
	}
}

func TestWritePromExposition(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(5 * 1000) // 5µs in ns
	m := Metric{Name: "test_duration_seconds", Help: "Test latencies.", Kind: KindHistogram, Scale: 1e-9}
	plain, labelled := m, m
	plain.Hist = &h
	labelled.Labels, labelled.Hist = `endpoint="/v1/score"`, &h
	out := string(List{plain, labelled}.AppendProm(nil))
	if n := strings.Count(out, "# TYPE test_duration_seconds histogram\n"); n != 1 {
		t.Errorf("two entries of one family rendered %d TYPE lines, want 1", n)
	}

	for _, want := range []string{
		"# HELP test_duration_seconds Test latencies.",
		"# TYPE test_duration_seconds histogram",
		`test_duration_seconds_bucket{le="0"} 1`,
		`test_duration_seconds_bucket{le="+Inf"} 2`,
		"test_duration_seconds_sum 5e-06",
		"test_duration_seconds_count 2",
		`test_duration_seconds_bucket{endpoint="/v1/score",le="+Inf"} 2`,
		`test_duration_seconds_count{endpoint="/v1/score"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Cumulative buckets never decrease and end at Count.
	var prev uint64
	for _, ln := range strings.Split(out, "\n") {
		if !strings.HasPrefix(ln, "test_duration_seconds_bucket{le=") {
			continue
		}
		v, err := strconv.ParseUint(ln[strings.LastIndexByte(ln, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", ln, err)
		}
		if v < prev {
			t.Fatalf("non-cumulative bucket line %q (prev %d)", ln, prev)
		}
		prev = v
	}
	if prev != 2 {
		t.Fatalf("final cumulative bucket = %d, want 2", prev)
	}
}
