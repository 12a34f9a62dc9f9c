package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// budgetLine is one row of the per-workload budget: what a layer costs
// per request, and that cost as a share of the client-observed round
// trip and of the server's CPU per request.
type budgetLine struct {
	Name        string  `json:"name"`
	USPerReq    float64 `json:"us_per_request"`
	ShareOfWire float64 `json:"share_of_client_wire"`
	ShareOfCPU  float64 `json:"share_of_server_cpu"`
}

// prediction is a structural claim written down before measuring.
type prediction struct {
	Claim     string  `json:"claim"`
	Threshold float64 `json:"threshold"`
	Observed  float64 `json:"observed"`
	Held      bool    `json:"held"`
}

// budget reconciles the client's view of a request with the server's
// own histograms and splits the server's part by layer:
//
//	client.wire ≈ net.residual + (server|binproto) self + engine self + core self + textproc
//
// Layer lines are CPU per request from the replay. For serial code CPU
// and wall time coincide; where the engine fans a batch out to a second
// core its wall time is shorter than its CPU, which pulls the
// unattributed remainder against the server's measured service time
// down, while queueing for a core pushes it up.
type budget struct {
	OpsPerRequest       float64      `json:"ops_per_request"`
	ClientWireP50US     float64      `json:"client_wire_p50_us"`
	ClientWireMeanUS    float64      `json:"client_wire_mean_us"`
	ServerServiceMeanUS float64      `json:"server_service_mean_us"`
	ServerCPUUSPerReq   float64      `json:"server_cpu_us_per_request"`
	Lines               []budgetLine `json:"lines"`
	// UnattributedUS is the server's measured service time minus the
	// program layers' lines; its share is of client.wire.
	UnattributedUS float64 `json:"unattributed_us"`
	// RunqWaitUS is what most of a positive remainder usually is on a
	// two-core host shared with the generator: time server threads were
	// runnable but had no core. It is summed over every server thread
	// (GC workers included), so it is an upper bound on what one request
	// waited and is shown beside the remainder, not added to the lines.
	RunqWaitUS        float64 `json:"runq_wait_us_per_request_upper_bound"`
	UnattributedShare float64 `json:"unattributed_share_of_client_wire"`
	UnattributedFlag  bool    `json:"unattributed_over_15_percent"`
	// CPUUnattributedShare is the part of the server's CPU per request
	// that neither a layer line nor kernel time explains (runtime
	// scheduling, netpoll, GC).
	CPUUnattributedShare float64      `json:"cpu_unattributed_share"`
	Predictions          []prediction `json:"predictions,omitempty"`
}

// budgetLayers lists, per workload, the per-layer metrics whose lines
// add up to the outermost call, outermost first.
var budgetLayers = map[string][]string{
	"score_mbsp": {
		"binproto.serve_self_ns_per_op", "engine.batch_self_ns_per_op", "core.score_self_ns_per_op",
		"textproc.lookup_ns_per_op", "textproc.tokenize_ns_per_op",
	},
	"score_json": {
		"server.json_handle_self_ns_per_op", "engine.batch_self_ns_per_op", "core.score_self_ns_per_op",
		"textproc.lookup_ns_per_op", "textproc.tokenize_ns_per_op",
	},
	"optimize_mbsp": {
		"binproto.serve_self_ns_per_op", "engine.candidates_self_ns_per_op", "core.candidates_self_ns_per_op",
		"textproc.candset_add_ns_per_op", "textproc.lookup_ns_per_op", "textproc.tokenize_ns_per_op",
	},
}

func (l *layerInputs) buildBudget() *budget {
	name := l.o.spec.Name
	ops := float64(l.o.spec.OpsPerRequest)
	b := &budget{OpsPerRequest: ops}
	if len(l.closed.WireUS) > 0 {
		b.ClientWireP50US = median(l.closed.WireUS)
		sum := 0.0
		for _, v := range l.closed.WireUS {
			sum += v
		}
		b.ClientWireMeanUS = sum / float64(len(l.closed.WireUS))
	}
	b.ServerServiceMeanUS = l.get("binproto.frame_service_us")
	if name == "score_json" {
		b.ServerServiceMeanUS = l.get("server.http_route_us")
	}
	// The layer lines are replay timings as measured, so the CPU they
	// are shares of is the closed phase's as measured too, not the
	// host-speed-normalised end-to-end figure.
	var ticks, good float64
	for _, w := range l.closed.Windows {
		ticks += float64(w.CPUTicks)
		good += float64(w.GoodOps)
	}
	cpuPerOp := 0.0
	if good > 0 {
		cpuPerOp = ticks / clockTick * 1e6 / good
	}

	if name == "mixed_online" {
		// The reader's round trip splits only into socket and service:
		// its frames were not replayed through the layers. The CPU side
		// is per feedback event, the workload's op.
		b.OpsPerRequest = 1
		b.ServerCPUUSPerReq = cpuPerOp
		b.Lines = append(b.Lines, budgetLine{Name: "net.residual_us_per_req", USPerReq: l.get("net.residual_us_per_req"),
			ShareOfWire: share(l.get("net.residual_us_per_req"), b.ClientWireP50US)})
		for _, m := range []string{"server.feedback_handle_us_per_event", "wal.append_ns_per_event"} {
			us := l.get(m)
			if perLayerUnits[m] == "ns" {
				us /= 1e3
			}
			b.Lines = append(b.Lines, budgetLine{Name: m, USPerReq: us, ShareOfCPU: share(us, cpuPerOp)})
		}
		b.finishCPU(l.get("proc.cpu_sys_share"))
		return b
	}

	b.ServerCPUUSPerReq = cpuPerOp * ops
	residual := l.get("net.residual_us_per_req")
	b.Lines = append(b.Lines, budgetLine{Name: "net.residual_us_per_req", USPerReq: residual, ShareOfWire: share(residual, b.ClientWireP50US)})
	layers := 0.0
	for _, m := range budgetLayers[name] {
		us := l.get(m) * ops / 1e3
		layers += us
		b.Lines = append(b.Lines, budgetLine{Name: m, USPerReq: us,
			ShareOfWire: share(us, b.ClientWireP50US), ShareOfCPU: share(us, b.ServerCPUUSPerReq)})
	}
	if name == "optimize_mbsp" {
		us := l.get("engine.topk_ns_per_call") / 1e3
		layers += us
		b.Lines = append(b.Lines, budgetLine{Name: "engine.topk_ns_per_call", USPerReq: us,
			ShareOfWire: share(us, b.ClientWireP50US), ShareOfCPU: share(us, b.ServerCPUUSPerReq)})
	}
	b.UnattributedUS = b.ServerServiceMeanUS - layers
	b.RunqWaitUS = l.get("proc.runq_wait_us_per_req")
	b.UnattributedShare = share(b.UnattributedUS, b.ClientWireP50US)
	b.UnattributedFlag = math.Abs(b.UnattributedShare) > 0.15
	b.finishCPU(l.get("proc.cpu_sys_share"))

	cpuNS := cpuPerOp * 1e3
	switch name {
	case "score_json":
		obs := share(l.get("server.json_handle_self_ns_per_op"), cpuNS)
		b.Predictions = append(b.Predictions, prediction{
			Claim: "server.json_* is at least 75 % of server CPU on score_json", Threshold: 0.75, Observed: obs, Held: obs >= 0.75})
	case "score_mbsp":
		obs := share(l.get("textproc.tokenize_ns_per_op")+l.get("textproc.lookup_ns_per_op")+
			l.get("core.score_self_ns_per_op")+l.get("engine.batch_self_ns_per_op"), cpuNS)
		b.Predictions = append(b.Predictions, prediction{
			Claim: "textproc.* + core.* + engine.* is at least 60 % of server CPU on score_mbsp", Threshold: 0.60, Observed: obs, Held: obs >= 0.60})
	}
	return b
}

// finishCPU adds the kernel line and the CPU remainder.
func (b *budget) finishCPU(sysShare float64) {
	b.Lines = append(b.Lines, budgetLine{Name: "proc.cpu_sys_share (kernel: sockets, syscalls)",
		USPerReq: sysShare * b.ServerCPUUSPerReq, ShareOfCPU: sysShare})
	explained := 0.0
	for _, ln := range b.Lines {
		explained += ln.ShareOfCPU
	}
	b.CPUUnattributedShare = 1 - explained
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func printBudget(w io.Writer, res *result) {
	b := res.Budget
	if b == nil {
		return
	}
	fmt.Fprintf(w, "   budget for %s (per request of %.0f ops; layer lines are replay CPU)\n", res.Workload, b.OpsPerRequest)
	fmt.Fprintf(w, "     client.wire p50 %.1f us, mean %.1f us; server's own service-time histogram mean %.1f us; mean residual %.1f us\n",
		b.ClientWireP50US, b.ClientWireMeanUS, b.ServerServiceMeanUS, b.ClientWireMeanUS-b.ServerServiceMeanUS)
	fmt.Fprintf(w, "     server CPU %.1f us per request\n", b.ServerCPUUSPerReq)
	fmt.Fprintf(w, "     %-52s %12s %10s %10s\n", "line", "us/request", "of wire", "of CPU")
	for _, ln := range b.Lines {
		fmt.Fprintf(w, "     %-52s %12.2f %9.1f%% %9.1f%%\n", ln.Name, ln.USPerReq, 100*ln.ShareOfWire, 100*ln.ShareOfCPU)
	}
	flag := ""
	if b.UnattributedFlag {
		flag = "  <-- over 15 % of client.wire"
	}
	if res.Workload != "mixed_online" {
		fmt.Fprintf(w, "     %-52s %12.2f %9.1f%%%s\n", "unattributed (service - layer lines)", b.UnattributedUS, 100*b.UnattributedShare, flag)
		fmt.Fprintf(w, "     %-52s %12.2f %9.1f%%\n", "  server threads waiting for a core (upper bound)", b.RunqWaitUS, 100*share(b.RunqWaitUS, b.ClientWireP50US))
		fmt.Fprintf(w, "     budget lines account for %.1f%% of client.wire\n", 100*(1-math.Abs(b.UnattributedShare)))
	}
	fmt.Fprintf(w, "     %-52s %12s %10s %9.1f%%\n", "CPU unattributed (runtime, netpoll, GC)", "", "", 100*b.CPUUnattributedShare)
	for _, p := range b.Predictions {
		verdict := "HELD"
		if !p.Held {
			verdict = "REFUTED"
		}
		fmt.Fprintf(w, "     prediction %s: %s (observed %.1f%%, threshold %.0f%%)\n", verdict, p.Claim, 100*p.Observed, 100*p.Threshold)
	}
}

// endToEndOrder is the print order of the bounded end-to-end metrics:
// exactly BENCHMARK.json's end_to_end list.
var endToEndOrder = []string{"setup_s", "goodput_ops_s", "lat_p50_ms", "server_cpu_us_per_op", "server_rss_peak_mb"}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  seed %d  %.1f s  traced=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	h := res.Host
	fmt.Fprintf(w, "   host: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, kernel %s\n", h.Commit, h.GoVersion, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.Kernel)
	fmt.Fprintf(w, "   connections %d, stream %s, server flags %v\n", res.Connections, res.StreamHash[:16], res.ServerFlags)
	for _, p := range res.Phases {
		fmt.Fprintf(w, "   phase %-7s requests %8d  ops attempted %10d  succeeded %10d  failed %d\n", p.Name, p.Requests, p.Attempted, p.Attempted-p.Failed, p.Failed)
	}
	fmt.Fprintf(w, "   closed-phase request rate per connection %.0f req/s\n", res.ClosedLaneRates)
	printHostFactors(w, res)
	latNote := fmt.Sprintf("  %d samples, median of %d windows", res.LatencySamples, len(res.Windows))
	if res.Saturated {
		latNote += ", unresolved(saturated)"
	}
	line := func(name string, m metric, note string) {
		fmt.Fprintf(w, "   %-24s %16.4f %-6s%s\n", name, m.Value, m.Unit, note)
	}
	for _, name := range endToEndOrder {
		m, ok := res.EndToEnd[name]
		if !ok {
			continue
		}
		note := ""
		if name == "lat_p50_ms" {
			note = latNote
		}
		line(name, m, note)
		if name == "lat_p50_ms" {
			line("lat_p99_ms", metric{res.LatP99MS, "ms"}, latNote+", no bound (per-layer)")
		}
	}
	fmt.Fprintf(w, "   %-24s %16.6f ratio  (%d of %d ops)\n", "failed_share", res.FailedShare, res.Failed, res.Attempted)
	if res.Traced {
		for _, name := range sortedNames(res.PerLayer) {
			m := res.PerLayer[name]
			fmt.Fprintf(w, "   %-40s %16.4f %s\n", name, m.Value, m.Unit)
		}
		printBudget(w, res)
		if res.TraceFile != "" {
			fmt.Fprintf(w, "   trace written to %s\n", res.TraceFile)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILURE: %s\n", f)
	}
}

// printHostFactors shows how fast the host ran during the two measured
// phases and what the time-based metrics read before normalisation.
func printHostFactors(w io.Writer, res *result) {
	var fc, fo []float64
	asMeasured := append([]closedWindow(nil), res.ClosedWindows...)
	for i := range asMeasured {
		fc = append(fc, asMeasured[i].HostFactor)
		asMeasured[i].HostFactor = 1
	}
	var p50s []float64
	for _, ws := range res.Windows {
		fo = append(fo, ws.HostFactor)
		if ws.N > 0 {
			p50s = append(p50s, ws.P50)
		}
	}
	good, cpu := summarizeClosed(asMeasured)
	fmt.Fprintf(w, "   host factor (calibration slice / reference; above 1 = slower host): set-up %.3f, closed %.3f, open %.3f\n", median(res.SetupHostFactors), median(fc), median(fo))
	fmt.Fprintf(w, "   the server used %.0f ms of CPU during the closed phase's %.0f ms of calibration slices; %d slices started before it was idle\n", res.SliceServerCPUMS, res.SliceMS, res.UnsettledSlices)
	fmt.Fprintf(w, "   as measured, before dividing the host factor out: goodput %.1f ops/s, server CPU %.4f us/op, p50 %.4f ms\n", good, cpu, median(p50s))
}

func saveResult(outDir string, res *result) {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return
	}
	name := "result-" + res.Workload + ".json"
	if res.Traced {
		name = "result-" + res.Workload + "-traced.json"
	}
	_ = os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}

// runAll is the one command: every workload untraced (the end-to-end
// metrics), then every workload traced (per-layer metrics, trace file,
// budget). Exit status 1 when answer checking found a wrong reply.
func runAll(ctx context.Context, base runOpts) int {
	status := 0
	for _, traced := range []bool{false, true} {
		for i := range workloads {
			o := base
			o.spec = &workloads[i]
			o.trace = traced
			res, err := runWorkload(ctx, &o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.spec.Name, err)
				return 2
			}
			printResult(os.Stdout, res)
			saveResult(base.outDir, res)
			if res.Failed != 0 {
				status = 1
			}
		}
	}
	return status
}
