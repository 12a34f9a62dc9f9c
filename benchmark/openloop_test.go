package main

import (
	"testing"
	"time"
)

// stallSender stands in for a server: every request takes service,
// except that the first request sent at or after stallAt into the phase
// is held for stall — one 200 ms server hiccup.
type stallSender struct {
	phaseStart time.Time
	service    time.Duration
	stallAt    time.Duration
	stall      time.Duration
	stalled    bool
}

func (s *stallSender) close() {}

func (s *stallSender) do(int) (timing, int, int) {
	var t timing
	t.start = time.Now()
	t.encoded = t.start
	d := s.service
	if !s.stalled && time.Since(s.phaseStart) >= s.stallAt {
		s.stalled = true
		d = s.stall
	}
	preciseSleep(d)
	t.received = time.Now()
	t.done = t.received
	return t, 1, 0
}

// A closed-loop (or send-time-stamped) generator would record one slow
// request for a 200 ms stall. An open loop must charge every request
// that was due during the stall, from its due time.
func TestOpenLoopChargesRequestsDueDuringAStall(t *testing.T) {
	const (
		rate    = 500.0 // one request every 2 ms
		dur     = 2 * time.Second
		windows = 5 // 400 ms each; the stall sits inside window 1
	)
	snd := &stallSender{phaseStart: time.Now(), service: 200 * time.Microsecond, stallAt: 450 * time.Millisecond, stall: 200 * time.Millisecond}
	ln := &lane{name: "a", snd: snd, goodput: true, latency: true, rate: rate}
	res := runOpen([]*lane{ln}, nil, dur, windows)

	if res.Scheduled != int(rate*dur.Seconds()) {
		t.Errorf("scheduled %d requests, want %d", res.Scheduled, int(rate*dur.Seconds()))
	}
	if res.CompletedShare() < 0.999 {
		t.Errorf("completed share %.3f: the backlog should drain well inside the phase", res.CompletedShare())
	}
	// ~100 requests were due during the 200 ms stall (plus the ones that
	// queue while the backlog drains); each must show tens of ms.
	quiet, stalled := res.Windows[3], res.Windows[1]
	if stalled.P99 < 150 {
		t.Errorf("stalled window p99 = %.1f ms, want close to the 200 ms stall", stalled.P99)
	}
	if stalled.P50 < 20 {
		t.Errorf("stalled window p50 = %.1f ms: requests due during the stall were not charged from their due time", stalled.P50)
	}
	if quiet.P99 > 20 {
		t.Errorf("quiet window p99 = %.1f ms, want a few ms at most", quiet.P99)
	}
	// The reported value is the median of the windows: one stalled
	// window out of five is a tail event and leaves it with the quiet
	// windows.
	if res.P99 > 20 {
		t.Errorf("reported p99 = %.1f ms, want the median window's", res.P99)
	}
	// The stall is the server's doing: the generator itself stayed on
	// schedule, so its own lateness must stay small.
	if res.LagP99MS > 5 {
		t.Errorf("generator lateness p99 = %.2f ms, want the stall charged to latency, not to the generator", res.LagP99MS)
	}
	if res.QueuedShare < 0.03 {
		t.Errorf("queued share = %.3f, want the requests that waited behind the stall counted", res.QueuedShare)
	}
}

func TestOpenLoopCountsAnUnfinishedSchedule(t *testing.T) {
	// Service time three times the interval: the lane can never keep up,
	// and what it did not send before the hard stop must show as a
	// completed share below the 98 % validity line.
	snd := &stallSender{phaseStart: time.Now(), service: 6 * time.Millisecond, stallAt: time.Hour}
	ln := &lane{name: "a", snd: snd, latency: true, rate: 500}
	res := runOpen([]*lane{ln}, nil, 500*time.Millisecond, 5)
	if res.CompletedShare() > 0.6 {
		t.Errorf("completed share = %.2f for a lane at 3x overload", res.CompletedShare())
	}
	if !res.Saturated() {
		t.Error("an overloaded open phase must be reported as saturated")
	}
	// Requests the lane never got to send still count: each carries the
	// time it had waited at its window's hard stop, so every scheduled
	// request has a latency sample and every window shows its backlog.
	if res.Samples != res.Scheduled {
		t.Errorf("%d latency samples for %d scheduled requests", res.Samples, res.Scheduled)
	}
	if last := res.Windows[4]; last.N == 0 || last.P50 < 30 {
		t.Errorf("last window %+v: the unsent backlog must show as latency", last)
	}
}

func TestClosedLoopWindowsAndCounts(t *testing.T) {
	snd := &stallSender{phaseStart: time.Now(), service: time.Millisecond, stallAt: time.Hour}
	ln := &lane{name: "a", snd: snd, goodput: true, latency: true}
	var ticks uint64
	res := runClosed([]*lane{ln}, nil, 400*time.Millisecond, true, 4, func() uint64 { ticks += 10; return ticks })
	if res.Requests < 100 || res.Attempted != res.Requests || res.Failed != 0 || res.GoodOps != res.Requests {
		t.Errorf("closed counts: %+v good %d", res.opCounts, res.GoodOps)
	}
	if len(res.Windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(res.Windows))
	}
	total := 0
	for _, w := range res.Windows {
		total += w.GoodOps
		if w.CPUTicks != 10 {
			t.Errorf("window CPU ticks = %d, want the sampler's 10", w.CPUTicks)
		}
	}
	if total > res.GoodOps || total < res.GoodOps-5 {
		t.Errorf("windows hold %d ops of %d", total, res.GoodOps)
	}
	if len(res.Spans) != res.Requests || len(res.WireUS) != res.Requests {
		t.Errorf("kept %d spans and %d wire samples for %d requests", len(res.Spans), len(res.WireUS), res.Requests)
	}
	if ln.next != res.Requests {
		t.Errorf("stream position %d after %d requests", ln.next, res.Requests)
	}
}

// A calibration slice is fixed work: two slices must compute the same
// thing, and the factor is a positive finite number. The lanes wait for
// the slice, so it brackets a window instead of overlapping it.
func TestCalibrationSliceIsFixedWork(t *testing.T) {
	cal := newCalibrator(nil)
	f1 := cal.hostFactor(2)
	sum1 := cal.sink
	f2 := cal.hostFactor(2)
	if cal.sink-sum1 != sum1 {
		t.Errorf("two slices computed different checksums: %d then %d", sum1, cal.sink-sum1)
	}
	if !(f1 > 0 && f2 > 0) || f1 > 100 || f2 > 100 {
		t.Errorf("host factors %v %v", f1, f2)
	}

	snd := &stallSender{phaseStart: time.Now(), service: time.Millisecond, stallAt: time.Hour}
	ln := &lane{name: "a", snd: snd, goodput: true, latency: true}
	res := runClosed([]*lane{ln}, cal, 200*time.Millisecond, false, 2, func() uint64 { return 0 })
	if len(res.Windows) != 2 || res.Windows[0].HostFactor <= 0 || res.Windows[1].HostFactor <= 0 {
		t.Fatalf("calibrated windows: %+v", res.Windows)
	}
	if res.Elapsed > 260*time.Millisecond {
		t.Errorf("phase time %v includes the calibration slices", res.Elapsed)
	}

	// The open phase offers its rate in the reference host's time: the
	// schedule of a window is stretched by the factor measured before it.
	open := runOpen([]*lane{{name: "a", snd: snd, latency: true, rate: 1000}}, cal, 200*time.Millisecond, 2)
	want := 0.0
	for _, w := range open.Windows {
		want += 100 / w.HostFactor // the bracket, close to the slice before the window
	}
	if got := float64(open.Scheduled); got < 0.7*want || got > 1.4*want {
		t.Errorf("scheduled %v requests, want about %v for host factors %+v", got, want, open.Windows)
	}
}
