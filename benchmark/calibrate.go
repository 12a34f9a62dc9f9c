package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The host-speed yardstick.
//
// The sandbox is a small VM on a shared host whose speed drifts over
// minutes and jumps within seconds: within one afternoon the same
// binary on the same inputs measured between 2.4 and 3.9 µs of CPU per
// op, and ten runs in a row spread (q3−q1 over the median) by 15 to
// 40 %. A time-based metric that moves that far on its own cannot
// carry a bound, so every window of the closed and open phases is
// bracketed by calibration slices: a fixed amount of the benchmark's
// own work, run on one thread per lane at once. How much CPU time a
// slice takes against calibRefMS says how much slower than the
// reference the host is running just then.
//
// A slice has two halves because the host has (at least) two ways of
// being slow, and which one dominates changes from hour to hour: eight
// independent multiply-xorshift chains keep the core's execution ports
// busy, which is what a sibling hyperthread takes away; a chain of
// dependent loads from an 8 MiB table misses L2 on every step, which is
// what a neighbour's cache and memory traffic slows down. Measured
// against the server's own CPU per op, window by window, each half
// alone correlates at 0.7 to 0.9 in the hours where its kind of noise
// rules and at 0.2 in the others; the sum held up in all of them
// (README, "Host-speed normalisation").
//
// The slices run between the windows, never inside one: every lane has
// checked its last reply before a slice starts and sends nothing until
// it ends, and settle has watched the server's threads leave the CPU
// (an online learner keeps folding accepted events for some
// milliseconds after the last reply). Nothing the server does in a
// window — more CPU per request, longer replies, a slower read path, a
// heavier fold — can change how long a slice takes; only the host can.
const (
	calibALUSteps   = 4000000 // rounds of the eight chains
	calibLoadSteps  = 300000  // dependent loads
	calibTableWords = 1 << 20 // 8 MiB of uint64

	// calibRefMS is one slice's CPU time on the sandbox (Intel Xeon @
	// 2.10 GHz, 2 vCPUs) in the quietest hour seen while the benchmark was
	// defined. It is a unit, not a tuning knob: it only fixes which host
	// speed the normalised numbers are quoted at.
	calibRefMS = 35.0
)

// calibrator holds the table the load chain walks and the server's CPU
// clock. A nil calibrator reports factor 1: the phase is quoted as
// measured.
type calibrator struct {
	table     []uint64
	sink      uint64               // keeps the slices' results alive
	serverCPU func() time.Duration // the server's threads' time on a core so far
	// Unsettled counts the slices that started with the server still
	// busy after settleLimit: their factors include its work.
	Unsettled int
}

const (
	settlePoll  = 10 * time.Millisecond
	settleQuiet = 0.05 // idle: the server used less than this share of a core over a poll
	settleLimit = time.Second
)

func newCalibrator(serverCPU func() time.Duration) *calibrator {
	c := &calibrator{table: make([]uint64, calibTableWords), serverCPU: serverCPU}
	x := uint64(1)
	for i := range c.table {
		x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9
		c.table[i] = x
	}
	return c
}

// settle returns once the server has been off the CPU for two polls in
// a row, so that what it still had to do for the window just ended is
// done, and counted, before the window's clocks are read and the slice
// starts.
func (c *calibrator) settle() {
	if c == nil || c.serverCPU == nil {
		return
	}
	quiet := 0
	last, lastT := c.serverCPU(), time.Now()
	for deadline := lastT.Add(settleLimit); time.Now().Before(deadline); {
		time.Sleep(settlePoll)
		cpu, now := c.serverCPU(), time.Now()
		if float64(cpu-last) < settleQuiet*float64(now.Sub(lastT)) {
			if quiet++; quiet == 2 {
				return
			}
		} else {
			quiet = 0
		}
		last, lastT = cpu, now
	}
	c.Unsettled++
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slice does one thread's fixed work and returns how much of the
// thread's CPU time it took. CPU time, not wall time: a server thread
// that wakes up during the slice after all (a fold tick, an fsync
// timer) can take the core away for a moment, which stops this thread's
// clock; what the host does to the thread — a busy sibling hyperthread,
// evicted cache lines, time stolen by the hypervisor, none of which the
// guest can see — keeps it running.
func (c *calibrator) slice(seed uint64) (time.Duration, uint64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	var x [8]uint64
	for j := range x {
		x[j] = seed + uint64(j)
	}
	for k := 0; k < calibALUSteps; k++ {
		x[0] = (x[0] ^ (x[0] >> 29)) * 0xbf58476d1ce4e5b9
		x[1] = (x[1] ^ (x[1] >> 27)) * 0x94d049bb133111eb
		x[2] = (x[2] ^ (x[2] >> 31)) + 0x9e3779b97f4a7c15
		x[3] = (x[3] ^ (x[3] >> 29)) * 0xbf58476d1ce4e5b9
		x[4] = (x[4] ^ (x[4] >> 27)) + 0x94d049bb133111eb
		x[5] = (x[5] ^ (x[5] >> 31)) * 0x9e3779b97f4a7c15
		x[6] = (x[6] ^ (x[6] >> 29)) + 0xbf58476d1ce4e5b9
		x[7] = (x[7] ^ (x[7] >> 27)) * 0x94d049bb133111eb
	}
	y := x[0] ^ x[1] ^ x[2] ^ x[3] ^ x[4] ^ x[5] ^ x[6] ^ x[7]
	for k := 0; k < calibLoadSteps; k++ {
		y = y*0x9e3779b97f4a7c15 + c.table[y>>44] // top 20 bits: the next address depends on this load
	}
	return threadCPU() - t0, y
}

// hostFactor runs one calibration slice on threads threads at once and
// returns the mean slice CPU time over calibRefMS: above 1 the host is
// slower than the reference.
func (c *calibrator) hostFactor(threads int) float64 {
	if c == nil {
		return 1
	}
	ds := make([]time.Duration, threads)
	sums := make([]uint64, threads)
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds[i], sums[i] = c.slice(uint64(i + 1))
		}(i)
	}
	wg.Wait()
	var total time.Duration
	for i, d := range ds {
		total += d
		c.sink += sums[i]
	}
	return float64(total) / float64(threads) / (calibRefMS * 1e6)
}
