// Command benchmark is the repository's one end-to-end benchmark: it
// generates seeded traffic in its own process, runs the real
// cmd/microserve binary as a child, drives four named workloads over
// loopback TCP, checks every answer, and prints the end-to-end metrics
// (or, in a traced run, the per-layer metrics) by name. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var (
		root     = flag.String("root", "..", "checkout root (BENCHMARK.json lives there)")
		bin      = flag.String("microserve", "", "microserve binary (default <root>/.bench_build/bin/microserve)")
		workload = flag.String("workload", "", "run this one workload and end with the driver's JSON line (empty = all four, human report)")
		seed     = flag.Int64("seed", DefaultSeed, "workload seed: same seed, same request stream")
		secs     = flag.Float64("seconds", 25, "measured seconds per run, split 10/40/50 % into warm, closed and open phases")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, trace file and budget report instead of end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "1 s phases, one set-up, no bounds: a quick end-to-end check")
		repeat   = flag.Int("repeat", 0, "run N full sets, print median and quartiles, exit 1 if the sets disagree beyond the bounds")
		sweep    = flag.Bool("sweep", false, "open phase at 20/40/60/80/100 % of the measured closed rate per workload (informational)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	if *bin == "" {
		*bin = filepath.Join(absRoot, ".bench_build", "bin", "microserve")
	}
	if _, err := os.Stat(*bin); err != nil {
		fatalf("microserve binary: %v (run the benchmark through benchmark/run.sh, which builds it)", err)
	}
	outDir := filepath.Join(absRoot, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := runOpts{root: absRoot, bin: *bin, outDir: outDir, seed: *seed, seconds: *secs, trace: *trace == 1}
	if *smoke {
		base.seconds, base.oneSetup = 2.5, true // 0.25 s warm, 1 s closed, 1.25 s open
	}

	switch {
	case *repeat > 0:
		os.Exit(runRepeat(ctx, base, *repeat))
	case *sweep:
		os.Exit(runSweep(ctx, base))
	case *workload != "":
		spec := findWorkload(*workload)
		if spec == nil {
			fatalf("unknown workload %q", *workload)
		}
		o := base
		o.spec = spec
		res, err := runWorkload(ctx, &o)
		if err != nil {
			fatalf("%s: %v", spec.Name, err)
		}
		printResult(os.Stdout, res)
		saveResult(outDir, res)
		printDriverLine(res)
	default:
		os.Exit(runAll(ctx, base))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printDriverLine writes the contract's last line: one JSON object
// with exactly correct, attempted, failed and metrics. An untraced run
// reports the end-to-end metrics, a traced run the per-layer metrics.
func printDriverLine(res *result) {
	metrics := res.EndToEnd
	if res.Traced {
		metrics = res.PerLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}
