package obs

import (
	"testing"
	"time"
)

// The histogram is advertised as embeddable in the score kernel's
// dispatch loop and the WAL append path; these tests hold Record and
// its helpers to that claim so a future change cannot silently add a
// per-sample allocation.

func TestHistogramRecordNoalloc(t *testing.T) {
	var h Histogram
	var v uint64
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 1234567
	}); n != 0 {
		t.Fatalf("Histogram.Record allocates %v/op, want 0", n)
	}
}

func TestTallyNoalloc(t *testing.T) {
	var h Histogram
	var tl Tally
	var v uint64
	if n := testing.AllocsPerRun(1000, func() {
		tl.Record(v)
		tl.Record(v >> 20)
		h.Absorb(&tl)
		v += 1234567
	}); n != 0 {
		t.Fatalf("Tally.Record and Histogram.Absorb allocate %v/op, want 0", n)
	}
}

func TestRecordSinceNoalloc(t *testing.T) {
	var h Histogram
	t0 := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		h.RecordSince(t0)
	}); n != 0 {
		t.Fatalf("Histogram.RecordSince allocates %v/op, want 0", n)
	}
}

func TestCTRUnitsNoalloc(t *testing.T) {
	ctr := 0.0
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		sink += CTRUnits(ctr)
		ctr += 0.001
	}); n != 0 {
		t.Fatalf("CTRUnits allocates %v/op, want 0", n)
	}
	_ = sink
}

func TestTraceRingSlowNoalloc(t *testing.T) {
	r := NewTraceRing(4, 10*time.Millisecond)
	d := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		_ = r.Slow(d)
		d += time.Microsecond
	}); n != 0 {
		t.Fatalf("TraceRing.Slow allocates %v/op, want 0", n)
	}
}
