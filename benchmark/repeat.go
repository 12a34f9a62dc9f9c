package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// boundSpec is one end_to_end entry of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end metrics' bounds from the checkout's
// BENCHMARK.json: the one place they are recorded.
func loadBounds(root string) ([]boundSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no end_to_end metrics")
	}
	return doc.EndToEnd, nil
}

// worseBy is how much worse b is than a, as a share of a (negative
// when b is better), in the metric's own direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runRepeat runs n full sets of the four workloads and prints, per
// workload and metric, every value with median, quartiles and spread.
// It is the A/A check: the sets are split into a first and a second
// half, and the exit status is 1 when for any metric either half's
// median is worse than the other's by more than the metric's bound
// (with n = 2: set 1 against set 2), or when any reply was wrong.
func runRepeat(ctx context.Context, base runOpts, n int) int {
	bounds, err := loadBounds(base.root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	failedOps := 0
	for set := 1; set <= n; set++ {
		for i := range workloads {
			o := base
			o.spec = &workloads[i]
			res, err := runWorkload(ctx, &o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %d %s: %v\n", set, o.spec.Name, err)
				return 2
			}
			fmt.Printf("-- set %d of %d\n", set, n)
			printResult(os.Stdout, res)
			failedOps += res.Failed
			if values[res.Workload] == nil {
				values[res.Workload] = map[string][]float64{}
			}
			for name, m := range res.EndToEnd {
				values[res.Workload][name] = append(values[res.Workload][name], m.Value)
			}
		}
	}

	status := 0
	fmt.Printf("\n== %d sets; bound = allowed worsening from BENCHMARK.json; spread = (q3-q1)/median\n", n)
	for i := range workloads {
		w := workloads[i].Name
		fmt.Printf("%s\n", w)
		for _, bs := range bounds {
			vs := values[w][bs.Name]
			if len(vs) == 0 {
				continue
			}
			line := fmt.Sprintf("   %-22s median %14.4f %-6s", bs.Name, median(vs), bs.Unit)
			if len(vs) >= 2 {
				q1, _, q3 := quartiles(vs)
				line += fmt.Sprintf(" q1 %14.4f q3 %14.4f spread %6.2f%% bound %5.1f%%", q1, q3, 100*spread(vs), 100*bs.Bound)
				half := (len(vs) + 1) / 2
				first, second := median(vs[:half]), median(vs[half:])
				worst := worseBy(first, second, bs.Better)
				if back := worseBy(second, first, bs.Better); back > worst {
					worst = back
				}
				if worst > bs.Bound {
					line += fmt.Sprintf("  DISAGREE: halves differ by %.1f%%", 100*worst)
					status = 1
				}
			}
			fmt.Println(line)
		}
	}
	if failedOps != 0 {
		fmt.Printf("answer checking failed %d ops\n", failedOps)
		status = 1
	}
	if status == 0 {
		fmt.Println("the sets agree within every bound")
	}
	return status
}

// sweepShares are the offered loads of -sweep, as shares of each
// connection's measured closed-phase request rate.
var sweepShares = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

type sweepPoint struct {
	Share          float64 `json:"share_of_closed_rate"`
	OfferedReqS    float64 `json:"offered_req_s"`
	OfferedOpsS    float64 `json:"offered_ops_s"`
	P50MS          float64 `json:"lat_p50_ms"`
	P99MS          float64 `json:"lat_p99_ms"`
	Samples        int     `json:"samples"`
	CompletedShare float64 `json:"completed_share"`
	LagP99MS       float64 `json:"sched_lag_p99_ms"`
	Saturated      bool    `json:"saturated"`
	FailedOps      int     `json:"failed_ops"`
}

type sweepCurve struct {
	Workload      string       `json:"workload"`
	Host          hostShape    `json:"host"`
	Seed          int64        `json:"seed"`
	ClosedLaneReq []float64    `json:"closed_lane_req_s"`
	P99LimitMS    float64      `json:"p99_limit_ms"`
	Points        []sweepPoint `json:"points"`
	// HighestReqS is the highest swept rate that kept lat_p99_ms under
	// the workload's limit without saturating or failing an op (0 when
	// none did).
	HighestReqS float64 `json:"highest_req_s_under_limit"`
}

// runSweep emits, per workload, the latency-versus-offered-load curve:
// an open phase at each share of the closed request rate this host just
// measured. Informational: outside the timed contract, no bounds.
func runSweep(ctx context.Context, base runOpts) int {
	var curves []sweepCurve
	for i := range workloads {
		o := base
		o.spec = &workloads[i]
		curve, err := sweepOne(ctx, &o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: sweep %s: %v\n", o.spec.Name, err)
			return 2
		}
		curves = append(curves, *curve)
		fmt.Printf("== sweep %s: closed rate per connection %.0f req/s, p99 limit %.1f ms\n", curve.Workload, curve.ClosedLaneReq, curve.P99LimitMS)
		fmt.Printf("   %6s %12s %14s %10s %10s %8s %10s %8s\n", "share", "req/s", "ops/s", "p50 ms", "p99 ms", "samples", "completed", "lag p99")
		for _, p := range curve.Points {
			mark := ""
			if p.Saturated {
				mark = "  saturated"
			}
			fmt.Printf("   %5.0f%% %12.0f %14.0f %10.3f %10.3f %8d %9.1f%% %8.3f%s\n",
				100*p.Share, p.OfferedReqS, p.OfferedOpsS, p.P50MS, p.P99MS, p.Samples, 100*p.CompletedShare, p.LagP99MS, mark)
		}
		fmt.Printf("   highest swept rate under the limit: %.0f req/s\n", curve.HighestReqS)
	}
	b, err := json.MarshalIndent(curves, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(base.outDir, "sweep.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing sweep.json: %v\n", err)
		return 2
	}
	return 0
}

func sweepOne(ctx context.Context, o *runOpts) (*sweepCurve, error) {
	s, _, err := setup(ctx, o, 0)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	runClosed(s.lanes, nil, seconds(warmShare, o.seconds), false, 0, nil)
	closed := runClosed(s.lanes, nil, seconds(closedShare, o.seconds), false, 0, nil)
	curve := &sweepCurve{Workload: o.spec.Name, Host: readHostShape(), Seed: o.seed, P99LimitMS: o.spec.P99LimitMS}
	curve.Host.Commit = buildRevision(s.sp)
	for _, n := range closed.LaneRequests {
		curve.ClosedLaneReq = append(curve.ClosedLaneReq, float64(n)/closed.Elapsed.Seconds())
	}
	for _, sh := range sweepShares {
		reqS := 0.0
		for li, ln := range s.lanes {
			ln.rate = sh * curve.ClosedLaneReq[li]
			if ln.latency {
				reqS += ln.rate
			}
		}
		// Swept rates are shares of the closed rate this host just
		// measured, so the sweep is quoted as measured: no calibrator.
		open := runOpen(s.lanes, nil, seconds(openShare, o.seconds), openWindows)
		p := sweepPoint{
			Share: sh, OfferedReqS: reqS, OfferedOpsS: open.Offered, P50MS: open.P50, P99MS: open.P99, Samples: open.Samples,
			CompletedShare: open.CompletedShare(), LagP99MS: open.LagP99MS, Saturated: open.Saturated(), FailedOps: open.Failed,
		}
		curve.Points = append(curve.Points, p)
		// A failed op misses any latency limit, so a rate with failures
		// does not qualify.
		if !p.Saturated && p.FailedOps == 0 && p.P99MS <= o.spec.P99LimitMS && reqS > curve.HighestReqS {
			curve.HighestReqS = reqS
		}
	}
	return curve, nil
}
