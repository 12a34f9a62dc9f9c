package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// lane is one connection with its sender goroutine: at most
// min(2, nproc) of them exist per run.
type lane struct {
	name string
	snd  sender
	// goodput lanes' succeeded ops count toward goodput_ops_s; latency
	// lanes' requests are the workload's read request for lat_*.
	goodput, latency bool
	// rate is the lane's open-phase schedule in requests/s.
	rate float64
	// next is the stream position, carried across phases so no phase
	// replays the previous one's requests.
	next int
}

// opCounts are the per-phase answer-checking totals.
type opCounts struct {
	Requests  int `json:"requests"`
	Attempted int `json:"ops_attempted"`
	Failed    int `json:"ops_failed"`
}

func (c *opCounts) add(o opCounts) {
	c.Requests += o.Requests
	c.Attempted += o.Attempted
	c.Failed += o.Failed
}

// requestSpan is one traced request: which lane sent it, its position
// in the stream and its four client-side instants.
type requestSpan struct {
	lane string
	seq  int
	t    timing
}

// closedWindow is one equal cut of a closed phase: what completed in
// it, what the server's CPU clock advanced by, and how fast the host
// was running around it.
type closedWindow struct {
	Elapsed  time.Duration
	GoodOps  int
	CPUTicks uint64 // server utime+stime over the window, clock ticks
	// HostFactor is the mean of the calibration slices before and after
	// the window (calibrate.go): above 1 the host ran slower than the
	// reference. 0 when the phase was not calibrated.
	HostFactor float64
}

// closedResult is what a closed phase measured.
type closedResult struct {
	opCounts
	Elapsed time.Duration // the windows' time; calibration slices are not in it
	GoodOps int           // succeeded ops on goodput lanes
	// Windows cut the phase into equal parts; goodput_ops_s and
	// server_cpu_us_per_op are medians over them.
	Windows []closedWindow
	WireUS  []float64     // client.wire per request on latency lanes, µs
	GenCPU  time.Duration // this process's CPU inside the windows
	Spans   []requestSpan // kept only when tracing
	// LaneRequests is each lane's request count, in lane order: the
	// closed request rates the open-phase rates are frozen from.
	LaneRequests []int
	// SliceTime and SliceServerTicks are how long the calibration slices
	// took and how far the server's CPU clock advanced meanwhile: the
	// run's own evidence that the server was idle while the yardstick
	// was read.
	SliceTime        time.Duration
	SliceServerTicks uint64
}

// bracket turns the windows+1 slice factors of a calibrated phase into
// one factor per window: the mean of the slice before and the slice
// after it.
func bracket(slices []float64) []float64 {
	fs := make([]float64, len(slices)-1)
	for w := range fs {
		fs[w] = (slices[w] + slices[w+1]) / 2
	}
	return fs
}

// runClosed drives every lane closed-loop for dur: each connection
// sends its next request as soon as the previous reply is checked.
// windows > 0 cuts the phase into that many equal windows, reads the
// server's CPU clock (cpuTicks) at their edges and runs a calibration
// slice before each and after the last; the lanes are idle during a
// slice. windows = 0 is one uncalibrated stretch (warm-up, tracing).
func runClosed(lanes []*lane, cal *calibrator, dur time.Duration, keepSpans bool, windows int, cpuTicks func() uint64) closedResult {
	type laneOut struct {
		opCounts
		good  int
		wire  []float64
		spans []requestSpan
	}
	outs := make([]laneOut, len(lanes))
	if keepSpans {
		for i := range outs {
			outs[i].spans = make([]requestSpan, 0, 1<<16)
		}
	}
	var res closedResult
	var slices []float64
	calibrate := func() {
		t0, ticks := time.Now(), uint64(0)
		if cpuTicks != nil {
			ticks = cpuTicks()
		}
		slices = append(slices, cal.hostFactor(len(lanes)))
		res.SliceTime += time.Since(t0)
		if cpuTicks != nil {
			res.SliceServerTicks += cpuTicks() - ticks
		}
	}
	cuts := windows
	if cuts == 0 {
		cuts = 1
	}
	if windows > 0 {
		cal.settle() // the previous phase's tail
	}
	for w := 0; w < cuts; w++ {
		if windows > 0 {
			calibrate()
		}
		var win closedWindow
		for i := range outs {
			win.GoodOps -= outs[i].good
		}
		if cpuTicks != nil {
			win.CPUTicks = cpuTicks()
		}
		cpu0 := selfCPU()
		start := time.Now()
		end := start.Add(dur / time.Duration(cuts))
		var wg sync.WaitGroup
		for li, ln := range lanes {
			wg.Add(1)
			go func(o *laneOut, ln *lane) {
				defer wg.Done()
				for time.Now().Before(end) {
					t, ops, failed := ln.snd.do(ln.next)
					o.Requests++
					o.Attempted += ops
					o.Failed += failed
					if ln.goodput {
						o.good += ops - failed
					}
					if ln.latency {
						o.wire = append(o.wire, float64(t.received.Sub(t.encoded))/1e3)
					}
					if keepSpans {
						o.spans = append(o.spans, requestSpan{lane: ln.name, seq: ln.next, t: t})
					}
					ln.next++
					if failed == ops {
						// A dead server must not turn the phase into a spin.
						time.Sleep(time.Millisecond)
					}
				}
			}(&outs[li], ln)
		}
		wg.Wait()
		win.Elapsed = time.Since(start)
		res.Elapsed += win.Elapsed
		res.GenCPU += selfCPU() - cpu0
		if windows > 0 {
			// What the server still does for this window's requests after
			// the last reply belongs to the window's CPU, not to the slice.
			cal.settle()
		}
		if cpuTicks != nil {
			win.CPUTicks = cpuTicks() - win.CPUTicks
		}
		for i := range outs {
			win.GoodOps += outs[i].good
		}
		if windows > 0 {
			res.Windows = append(res.Windows, win)
		}
	}
	if windows > 0 {
		calibrate()
		for w, f := range bracket(slices) {
			res.Windows[w].HostFactor = f
		}
	}
	for i := range outs {
		res.add(outs[i].opCounts)
		res.LaneRequests = append(res.LaneRequests, outs[i].Requests)
		res.GoodOps += outs[i].good
		res.WireUS = append(res.WireUS, outs[i].wire...)
		res.Spans = append(res.Spans, outs[i].spans...)
	}
	return res
}

// openResult is what an open phase measured.
type openResult struct {
	opCounts
	Elapsed time.Duration // the windows' time; calibration slices are not in it
	GoodOps int
	Windows []windowStat
	// P50 and P99 are the medians of the windows' p50 / p99 (ms), each
	// window's value divided by its host factor first.
	P50, P99  float64
	Samples   int // latency samples behind P50/P99
	Scheduled int // requests the schedule called for
	Completed int // of those, answered before the phase's hard stop
	// LagP99MS is how late the generator itself ran: p99 over every
	// lane of (actual send − the later of the due time and the previous
	// reply). Waiting for a connection that is still busy is the
	// server's doing and is charged to latency, not to the generator.
	LagP99MS float64
	// QueuedShare is the share of requests whose connection was still
	// busy with the previous request at their due time.
	QueuedShare float64
	Offered     float64 // scheduled ops per second on goodput lanes
}

// CompletedShare is the fraction of the schedule the generator got
// through; below 0.98 the latency figures describe a saturated system.
func (r *openResult) CompletedShare() float64 {
	if r.Scheduled == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Scheduled)
}

// Saturated applies the validity rule for lat_*: the schedule was not
// completed, the generator ran late, or most requests had to queue for
// their connection (the offered rate is at the connections' limit).
func (r *openResult) Saturated() bool {
	return r.CompletedShare() < 0.98 || r.LagP99MS > 1 || r.QueuedShare > 0.5
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep
// is not usable for a sub-millisecond schedule: an idle Go runtime
// parks in epoll_wait, whose timeout it rounds up to a whole
// millisecond, so a 300 µs sleep returns after 1.1 ms. nanosleep wakes
// within ~0.1 ms without spinning a core the server needs.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// openGrace is how long past a window's end a lane may keep draining
// requests that were already due, as a share of the phase.
const openGrace = 0.1

// runOpen drives every lane on a constant-rate schedule for dur, cut
// into equal windows. Request k of a window is due at the window's
// start + k/rate and is timed from that due time whether or not the
// connection was free then, so a stall charges every request that was
// due during it (no coordinated omission). A window ends when its
// schedule is sent, or openGrace past its last due time; a calibration
// slice (calibrate.go) runs before each window and after the last,
// with every lane idle.
//
// The lanes' rates are frozen in the reference host's time: a window
// that starts with the host running f times slower offers rate/f, so
// the server sees the same utilisation on a slow afternoon as on a
// quiet night and its latencies stay proportional to f, which the
// normalisation then divides out. Offered at the nominal rate, a host
// twice as slow turns 40 % utilisation into 80 % and the latencies
// into a measurement of the queue.
func runOpen(lanes []*lane, cal *calibrator, dur time.Duration, windows int) openResult {
	type laneOut struct {
		opCounts
		good, scheduled, completed, queued int
		lat                                [][]float64 // per window, ms
		lag                                []float64   // ms
	}
	outs := make([]laneOut, len(lanes))
	for i := range outs {
		outs[i].lat = make([][]float64, windows)
	}
	winDur := dur / time.Duration(windows)
	grace := time.Duration(float64(dur) * openGrace)
	var res openResult
	var slices []float64
	cal.settle() // the previous phase's tail
	for w := 0; w < windows; w++ {
		f := cal.hostFactor(len(lanes))
		slices = append(slices, f)
		start := time.Now().Add(5 * time.Millisecond)
		end := start.Add(winDur)
		hardStop := end.Add(grace)
		var wg sync.WaitGroup
		for li, ln := range lanes {
			if ln.rate <= 0 {
				continue
			}
			wg.Add(1)
			go func(li int, ln *lane) {
				defer wg.Done()
				o := &outs[li]
				interval := float64(time.Second) / ln.rate * f
				// Lanes are offset by a fraction of an interval so two
				// connections on the same rate interleave instead of bursting.
				offset := time.Duration(interval * float64(li) / float64(len(lanes)))
				var free time.Time // when the connection finished its previous request
				for k := 0; ; k++ {
					due := start.Add(offset + time.Duration(float64(k)*interval))
					if !due.Before(end) {
						break
					}
					o.scheduled++
					now := time.Now()
					if now.After(hardStop) {
						// Scheduled, never sent: the request had waited this
						// long when the window gave up on it, so its latency
						// is at least that.
						if ln.latency {
							o.lat[w] = append(o.lat[w], float64(hardStop.Sub(due))/1e6)
						}
						continue
					}
					if wait := due.Sub(now); wait > 0 {
						preciseSleep(wait)
					}
					sent := time.Now()
					t, ops, failed := ln.snd.do(ln.next)
					ln.next++
					o.completed++
					o.Requests++
					o.Attempted += ops
					o.Failed += failed
					could := due // the earliest moment the request could have gone out
					if free.After(due) {
						could = free
						o.queued++
					}
					free = t.done
					o.lag = append(o.lag, float64(sent.Sub(could))/1e6)
					if ln.goodput {
						o.good += ops - failed
					}
					if ln.latency {
						o.lat[w] = append(o.lat[w], float64(t.done.Sub(due))/1e6)
					}
				}
			}(li, ln)
		}
		wg.Wait()
		res.Elapsed += time.Since(start)
		cal.settle()
	}
	slices = append(slices, cal.hostFactor(len(lanes)))
	merged := make([][]float64, windows)
	var lag []float64
	offered := 0.0
	queued := 0
	for i := range outs {
		o := &outs[i]
		queued += o.queued
		res.add(o.opCounts)
		res.GoodOps += o.good
		res.Scheduled += o.scheduled
		res.Completed += o.completed
		if lanes[i].goodput && o.Requests > 0 {
			offered += float64(o.scheduled) * float64(o.Attempted) / float64(o.Requests)
		}
		lag = append(lag, o.lag...)
		for w := range o.lat {
			merged[w] = append(merged[w], o.lat[w]...)
			res.Samples += len(o.lat[w])
		}
	}
	res.Windows, res.P50, res.P99 = summarizeWindows(merged, bracket(slices))
	if len(lag) > 0 {
		sort.Float64s(lag)
		res.LagP99MS = percentile(lag, 0.99)
	}
	if res.Completed > 0 {
		res.QueuedShare = float64(queued) / float64(res.Completed)
	}
	res.Offered = offered / dur.Seconds()
	return res
}
