package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseReport is the per-phase answer-checking line: ops attempted,
// succeeded and failed are printed for every phase.
type phaseReport struct {
	Name string `json:"name"`
	opCounts
	Seconds float64 `json:"seconds"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Host        hostShape         `json:"host"`
	ServerFlags []string          `json:"server_flags"`
	Connections int               `json:"connections"`
	StreamHash  string            `json:"stream_hash"`
	Phases      []phaseReport     `json:"phases"`
	EndToEnd    map[string]metric `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
	// LatencySamples is how many requests stand behind lat_p50_ms and
	// lat_p99_ms; Windows are the open phase's equal cuts.
	LatencySamples int          `json:"latency_samples"`
	Windows        []windowStat `json:"windows,omitempty"`
	// ClosedWindows are the closed phase's equal cuts. Both window lists
	// hold what was measured beside each window's host factor, so the
	// reported medians can be recomputed without the normalisation.
	ClosedWindows []closedWindow `json:"closed_windows,omitempty"`
	// SliceMS and SliceServerCPUMS: the closed phase's calibration slices
	// took this long and the server burned this much CPU meanwhile.
	SliceMS          float64 `json:"calibration_slices_ms"`
	SliceServerCPUMS float64 `json:"server_cpu_during_slices_ms"`
	// SetupHostFactors are the factors setup_s's set-ups were divided by.
	SetupHostFactors []float64 `json:"setup_host_factors"`
	// UnsettledSlices counts calibration slices that had to start with
	// the server still on the CPU; 0 on every workload here.
	UnsettledSlices int `json:"unsettled_slices"`
	// LatP99MS is lat_p99_ms: measured and printed by every run, but too
	// unsteady on the sandbox to carry a bound, so the driver sees it
	// among the per-layer metrics of a traced run.
	LatP99MS float64 `json:"lat_p99_ms"`
	// Saturated marks an open phase that completed < 98 % of its
	// schedule or ran > 1 ms late at p99: its lat_* are unresolved.
	Saturated bool `json:"saturated"`
	// ClosedLaneRates is each connection's closed-phase request rate
	// (requests/s), what the frozen open-phase rates are 40 % of.
	ClosedLaneRates []float64 `json:"closed_lane_req_s"`
	FailedShare     float64   `json:"failed_share"`
	Attempted       int       `json:"attempted"`
	Failed          int       `json:"failed"`
	Failures        []string  `json:"failures,omitempty"`
	Budget          *budget   `json:"budget,omitempty"`
	TraceFile       string    `json:"trace_file,omitempty"`
}

// runOpts selects what one run does.
type runOpts struct {
	root    string // checkout root (holds cmd/microserve's build output)
	bin     string // microserve binary
	outDir  string // benchmark/out
	spec    *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	// oneSetup sets up once instead of spec.Setups times (smoke runs;
	// traced runs always do, their setup_s is not reported).
	oneSetup bool
}

// session is one set-up server with its connected lanes.
type session struct {
	in     *inputs
	sp     *serverProc
	lanes  []*lane
	fails  *failLog
	runDir string
	primed opCounts
	// timerWait is the part of priming spent waiting for the online
	// learner's publish interval: wall-clock time a faster or slower
	// host does not change, so setup_s does not divide it by the host
	// factor.
	timerWait time.Duration
}

func (s *session) teardown() {
	for _, ln := range s.lanes {
		ln.snd.close()
	}
	if s.sp != nil {
		s.sp.stop()
	}
	if s.in != nil {
		s.in.close()
	}
	os.RemoveAll(s.runDir)
}

// readerConns is the connection count of the read workloads: at most
// min(2, nproc), so the generator never needs more cores than it
// leaves the server.
func readerConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// setup performs everything setup_s covers: input generation, artifact
// writing, server boot to a healthy /healthz, connection and priming.
func setup(ctx context.Context, o *runOpts, attempt int) (*session, time.Duration, error) {
	t0 := time.Now()
	s := &session{fails: &failLog{}}
	s.runDir = filepath.Join(o.outDir, fmt.Sprintf("run-%s-%d-%d", o.spec.Name, os.Getpid(), attempt))
	if err := os.MkdirAll(s.runDir, 0o755); err != nil {
		return nil, 0, err
	}
	var err error
	if s.in, err = buildInputs(o.spec, o.seed, s.runDir); err != nil {
		s.teardown()
		return nil, 0, err
	}
	if s.sp, err = startServer(ctx, o.bin, serverFlags(o.spec, s.in.artifact, s.runDir), s.runDir); err != nil {
		s.teardown()
		return nil, 0, err
	}
	s.lanes = makeLanes(o.spec, s.in, s.sp.addr, s.fails)
	if err = s.prime(ctx); err != nil {
		err = fmt.Errorf("priming %s: %w; server log: %s", o.spec.Name, err, s.sp.tailLog())
		s.teardown()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func makeLanes(spec *workloadSpec, in *inputs, addr string, fails *failLog) []*lane {
	var lanes []*lane
	n := readerConns()
	for k := 0; k < n; k++ {
		ln := &lane{
			name: string(rune('a' + k)), goodput: true, latency: true,
			rate: spec.OpenRate / float64(n),
			// Connections start at different points of the pool so they
			// never send the same request at the same moment.
			next: k * poolFrames / n,
		}
		switch spec.Name {
		case "score_mbsp":
			ln.snd = &mbspScoreSender{conn: mbspConn{addr: addr}, frames: in.scoreFrames, refs: in.scoreRef, ck: scoreChecker{fails: fails}}
		case "score_json":
			ln.snd = &jsonScoreSender{conn: httpConn{addr: addr}, frames: in.scoreFrames, refs: in.scoreRef, ck: scoreChecker{fails: fails}}
		case "optimize_mbsp":
			ln.snd = &optimizeSender{conn: mbspConn{addr: addr}, reqs: in.optReqs, refs: in.optRef, fails: fails}
		case "mixed_online":
			// Two connections with different jobs: A writes, B reads.
			return []*lane{
				{name: "a", goodput: true, rate: spec.FeedbackRate,
					snd: &feedbackSender{conn: httpConn{addr: addr}, bodies: in.feedback, fails: fails}},
				{name: "b", latency: true, rate: spec.OpenRate,
					snd: &mbspScoreSender{conn: mbspConn{addr: addr}, frames: in.mixedFrames, ck: scoreChecker{fails: fails}}},
			}
		}
		lanes = append(lanes, ln)
	}
	return lanes
}

// prime sends the first requests. On the read-only workloads one
// checked request per connection proves the artifact is being served.
// On mixed_online it feeds feedback until the learner has published
// sdbn and an online micro version once each, then proves the reader.
func (s *session) prime(ctx context.Context) error {
	count := func(ln *lane) error {
		_, ops, failed := ln.snd.do(ln.next)
		ln.next++
		s.primed.Requests++
		s.primed.Attempted += ops
		s.primed.Failed += failed
		if failed != 0 {
			return fmt.Errorf("lane %s: %d of %d ops failed: %v", ln.name, failed, ops, s.fails.msgs)
		}
		return nil
	}
	if s.in.spec.Name == "mixed_online" {
		t0 := time.Now()
		deadline := t0.Add(30 * time.Second)
		defer func() { s.timerWait = time.Since(t0) }()
		for {
			if err := count(s.lanes[0]); err != nil {
				return err
			}
			ok, err := onlinePublished(s.sp.addr)
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return errors.New("the learner never published sdbn and an online micro version")
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Millisecond):
			}
		}
		return count(s.lanes[1])
	}
	for _, ln := range s.lanes {
		if err := count(ln); err != nil {
			return err
		}
	}
	return nil
}

// onlinePublished reports whether GET /v1/models lists an sdbn version
// and a micro version whose source is the online learner.
func onlinePublished(addr string) (bool, error) {
	resp, err := httpGet("http://" + addr + "/v1/models")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var body struct {
		Models []struct {
			Name   string `json:"name"`
			Source string `json:"source"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	var sdbn, micro bool
	for _, m := range body.Models {
		if m.Source != "online" {
			continue
		}
		switch m.Name {
		case "sdbn":
			sdbn = true
		case "micro":
			micro = true
		}
	}
	return sdbn && micro, nil
}

func seconds(share float64, total float64) time.Duration {
	return time.Duration(share * total * float64(time.Second))
}

// runWorkload runs one workload end to end and returns its result. The
// error is for things that stop the run (the server will not boot);
// wrong answers are counted in the result, not returned.
func runWorkload(ctx context.Context, o *runOpts) (*result, error) {
	res := &result{
		Workload: o.spec.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Host: readHostShape(), EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}

	// Set up several times; all but the last server are torn down
	// again, so one slow boot cannot move setup_s.
	setups := o.spec.Setups
	if o.oneSetup || o.trace {
		setups = 1
	}
	var s *session
	// The yardstick is the benchmark's own; building it is not part of
	// setting the server up. Set-ups are bracketed by calibration slices
	// like the windows of the phases: no server is up before the first,
	// and the one each set-up leaves behind is primed and idle.
	cal := newCalibrator(func() time.Duration {
		onCPU, _ := schedstat(s.sp.pid())
		return onCPU
	})
	slices := []float64{cal.hostFactor(readerConns())}
	var setupTimes, timerWaits []float64
	for a := 0; a < setups; a++ {
		if s != nil {
			res.addPhase("prime", s.primed, 0)
			s.teardown()
		}
		var d time.Duration
		var err error
		if s, d, err = setup(ctx, o, a); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		timerWaits = append(timerWaits, s.timerWait.Seconds())
		cal.settle()
		slices = append(slices, cal.hostFactor(readerConns()))
	}
	defer s.teardown()
	res.SetupHostFactors = bracket(slices)
	for a, f := range res.SetupHostFactors {
		setupTimes[a] = (setupTimes[a]-timerWaits[a])/f + timerWaits[a]
	}
	res.addPhase("prime", s.primed, 0)
	res.ServerFlags = s.sp.flags
	res.Connections = len(s.lanes)
	res.StreamHash = s.in.streamHash
	res.Host.Commit = buildRevision(s.sp)
	res.EndToEnd["setup_s"] = metric{median(setupTimes), "s"}

	warm := runClosed(s.lanes, nil, seconds(warmShare, o.seconds), false, 0, nil)
	res.addPhase("warm", warm.opCounts, warm.Elapsed.Seconds())

	closedDur := seconds(closedShare, o.seconds)
	if o.trace {
		closedDur = seconds(tracedClosedShare, o.seconds)
	}
	before, err := takeScrape(s.sp)
	if err != nil {
		return nil, err
	}
	u0, s0, err := cpuTicks(s.sp.pid())
	if err != nil {
		return nil, err
	}
	_, wait0 := schedstat(s.sp.pid())
	closed := runClosed(s.lanes, cal, closedDur, false, closedWindows, func() uint64 {
		ut, st, _ := cpuTicks(s.sp.pid())
		return ut + st
	})
	_, wait1 := schedstat(s.sp.pid())
	u1, s1, err := cpuTicks(s.sp.pid())
	if err != nil {
		return nil, err
	}
	after, err := takeScrape(s.sp)
	if err != nil {
		return nil, err
	}
	res.addPhase("closed", closed.opCounts, closed.Elapsed.Seconds())
	for _, n := range closed.LaneRequests {
		res.ClosedLaneRates = append(res.ClosedLaneRates, float64(n)/closed.Elapsed.Seconds())
	}
	res.ClosedWindows = closed.Windows
	res.SliceMS = float64(closed.SliceTime) / 1e6
	res.SliceServerCPUMS = float64(closed.SliceServerTicks) / clockTick * 1e3
	good, cpu := summarizeClosed(closed.Windows)
	if math.IsInf(cpu, 1) {
		return nil, fmt.Errorf("no op succeeded in at least half of the closed phase's %d windows; server log: %s", len(closed.Windows), s.sp.tailLog())
	}
	res.EndToEnd["goodput_ops_s"] = metric{good, "ops/s"}
	res.EndToEnd["server_cpu_us_per_op"] = metric{cpu, "us"}

	var traced closedResult
	if o.trace {
		traced = runClosed(s.lanes, nil, seconds(tracedClosedShare, o.seconds), true, 0, nil)
		res.addPhase("traced", traced.opCounts, traced.Elapsed.Seconds())
	}

	openDur := seconds(openShare, o.seconds)
	if o.trace {
		openDur = seconds(tracedOpenShare, o.seconds)
	}
	open := runOpen(s.lanes, cal, openDur, openWindows)
	res.addPhase("open", open.opCounts, open.Elapsed.Seconds())
	res.EndToEnd["lat_p50_ms"] = metric{open.P50, "ms"}
	res.LatP99MS = open.P99
	res.UnsettledSlices = cal.Unsettled
	res.LatencySamples, res.Windows, res.Saturated = open.Samples, open.Windows, open.Saturated()

	rss, err := vmHWMMB(s.sp.pid())
	if err != nil {
		return nil, err
	}
	res.EndToEnd["server_rss_peak_mb"] = metric{rss, "MB"}

	res.finish(s.fails)
	if o.trace {
		lm := &layerInputs{
			o: o, s: s, res: res, before: before, after: after,
			closed: closed, traced: traced, open: open,
			cpuUserTicks: u1 - u0, cpuSysTicks: s1 - s0, runqWait: wait1 - wait0,
		}
		if err := lm.fetchLive(); err != nil {
			return nil, err
		}
		// The server must be gone before its WAL directory is replayed
		// and before the in-process replay competes for the two cores.
		for _, ln := range s.lanes {
			ln.snd.close()
		}
		s.sp.stop()
		if err := lm.measure(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *result) addPhase(name string, c opCounts, secs float64) {
	if n := len(r.Phases); n > 0 && r.Phases[n-1].Name == name {
		r.Phases[n-1].add(c)
		return
	}
	r.Phases = append(r.Phases, phaseReport{Name: name, opCounts: c, Seconds: secs})
}

// finish totals the answer-checking counts over every phase.
func (r *result) finish(fails *failLog) {
	for _, p := range r.Phases {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
	}
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	r.Failures = fails.msgs
}

// sortedNames returns a metric map's keys in order, for stable output.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// summarizeClosed turns the closed phase's windows into goodput
// (ops/s) and server CPU per op (µs) at the reference host speed: each
// window's goodput is multiplied and its CPU per op divided by the
// window's host factor, and the medians of the window values are
// reported. A window in which no op succeeded counts as the worst case
// — goodput 0, CPU per op +Inf — so a stall moves the medians the way
// it moved the phase.
func summarizeClosed(windows []closedWindow) (goodput, cpuUS float64) {
	var rates, cpus []float64
	for _, w := range windows {
		if w.GoodOps == 0 {
			rates, cpus = append(rates, 0), append(cpus, math.Inf(1))
			continue
		}
		ops := float64(w.GoodOps)
		rates = append(rates, ops/w.Elapsed.Seconds()*w.HostFactor)
		cpus = append(cpus, float64(w.CPUTicks)/clockTick*1e6/ops/w.HostFactor)
	}
	return median(rates), median(cpus)
}
