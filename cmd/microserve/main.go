// Command microserve is the serving binary of the scoring engine: the
// serve-online half of the train-offline / serve-online split. It
// loads snapshot artifacts produced offline (cmd/clickmodelfit -o, or
// any model's Save) and answers CTR-scoring requests over JSON — and,
// on the same port, over the length-prefixed binary protocol
// (internal/server/binproto; connections are sniffed by their first
// bytes) — with admin endpoints to hot-swap new artifacts in and roll
// bad ones back without a restart. Artifacts are mapped read-only. A
// micro model is served from its mapping — its load is O(1) in artifact
// size and replicas share the page cache — and a click model is thawed
// from it: its values are copied into the form a fit produces, each
// checked on the way, and the mapping is let go.
//
// With -online the process also becomes a learner: click feedback
// POSTed to /v1/feedback streams into internal/stream's sharded sink,
// and the configured models are refitted and auto-published as new
// engine versions on every interval — the serve→observe→retrain loop
// in one binary.
//
// Usage:
//
//	microserve -addr :8377
//	microserve -load pbm=/models/pbm.bin -load /models/micro.bin
//	microserve -default pbm -workers 8
//	microserve -online model=pbm,interval=30s
//	microserve -online model=sdbn+micro,interval=10s,decay=0.98,window=20000
//	microserve -online model=pbm -wal dir=/var/lib/microserve/wal
//	microserve -online model=pbm -wal dir=./wal,fsync=always,segment=64MB,retain=1h
//	microserve -online model=pbm -ratelimit rate=5000,burst=10000
//	microserve -trace-slow 50ms -trace-ring 256
//	microserve -debug-addr localhost:6060
//
// The -online spec is comma-separated key=value pairs: model (repeat
// or join with +), interval, window, decay, shards, queue, min, iters.
//
// The engine runs instrumented: stage-timing and per-model
// predicted-CTR histograms feed /metrics, and /healthz carries a
// drift block comparing each serving version's live CTR distribution
// against its publish-time baseline. Requests slower than -trace-slow
// (either protocol) are kept in a -trace-ring-sized ring served at
// GET /debug/traces. -debug-addr binds net/http/pprof on its own
// listener — profiling never shares the serving port.
//
// The -wal spec (requires -online) makes accepted feedback durable:
// events are logged to a segmented write-ahead log before the learner
// folds them, and replayed into the learner on the next boot. Keys:
// dir (required), fsync (always | off | interval=DURATION, default
// interval=100ms — the bounded-loss window of a kill -9), segment
// (rotation size, default 64MB), age (rotation age, default 10m),
// retain (prune sealed segments older than this; key it to the
// learner's decay window), max (total log byte budget).
//
// The -ratelimit spec throttles POST /v1/feedback per client
// (X-Client-ID header, else remote host): rate (events/s, required),
// burst (bucket depth, default 2x rate, at most 2^31-1) and ttl (how
// long an idle client's bucket is remembered, default 10m).
// Over-budget requests get 429 with a Retry-After hint.
//
// Endpoints (see internal/server):
//
//	GET  /healthz
//	GET  /metrics
//	GET  /v1/models
//	POST /v1/score            {"model":"pbm","session":{...}} or {"lines":[...]}
//	POST /v1/score/batch      {"requests":[...]}
//	POST /v1/optimize         {"lines":[...],"candidates":[[...],...]} or {"lines":[...],"inventory":[...]}
//	POST /v1/feedback         {"sessions":[...],"snippets":[...]}
//	POST /v1/models/{name}/load      {"path":"/models/pbm-v2.bin"}
//	POST /v1/models/{name}/rollback
//	POST /v1/models/{name}/snapshot  {"path":"/models/pbm-online.bin"}
//	GET  /v1/models/{name}/snapshot  (ETag/If-None-Match replica sync)
//	GET  /debug/traces               (recent slow-request traces)
//
// The process drains in-flight requests on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/binproto"
	"repro/internal/stream"
	"repro/internal/wal"
)

// HTTP-side connection limits, the counterpart of binproto's frame
// read timeout: no peer holds a connection's goroutine and buffers
// forever by going quiet. Headers get seconds; a whole request gets
// long enough for an admin upload of a 100MB artifact over a slow
// link; a keep-alive connection may sit idle as long as a binary one.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 2 * time.Minute
	httpIdleTimeout       = 5 * time.Minute
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("microserve: ")

	addr := flag.String("addr", ":8377", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "engine-wide cap on batch-scoring strands; the goroutine that receives a batch always scores it, helpers join large batches up to this cap")
	defModel := flag.String("default", engine.NameMicro, "model served when a request names none")
	keep := flag.Int("keep", 8, "model versions kept per name (0 = unbounded)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	online := flag.String("online", "", "online learning spec, e.g. model=pbm,interval=30s (empty = serving only)")
	walSpec := flag.String("wal", "", "feedback WAL spec, e.g. dir=./wal,fsync=interval=100ms (requires -online; empty = no durability)")
	rateSpec := flag.String("ratelimit", "", "feedback rate-limit spec, e.g. rate=5000,burst=10000 (empty = unlimited)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = pprof off; never on the serving port)")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "capture requests at least this slow at /debug/traces (0 captures everything)")
	traceRing := flag.Int("trace-ring", 128, "slow-request traces retained (oldest overwritten)")
	var loads []string
	flag.Func("load", "snapshot artifact to serve, as name=path or path (repeatable)", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	flag.Parse()

	engObs := &engine.Observer{}
	eng := engine.New(
		engine.WithWorkers(*workers),
		engine.WithDefaultModel(*defModel),
		engine.WithKeepVersions(*keep),
		engine.WithObserver(engObs),
	)
	for _, spec := range loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			name, path = "", spec // bare path: install under the artifact's own name
		}
		info, err := loadArtifact(eng, name, path)
		if err != nil {
			log.Fatalf("-load %s: %v", spec, err)
		}
		log.Printf("loaded %s from %s (%d params, source %s)", info.Ref(), path, info.Params, info.Source)
	}

	var opts []server.Option
	var learner *stream.Learner
	var feedbackLog *wal.WAL
	if *walSpec != "" && *online == "" {
		log.Fatal("-wal requires -online: the log exists to feed the learner")
	}
	if *online != "" {
		cfg, err := parseOnline(*online)
		if err != nil {
			log.Fatalf("-online %s: %v", *online, err)
		}
		cfg.Logger = log.Default()
		if *walSpec != "" {
			dir, walOpt, err := parseWAL(*walSpec)
			if err != nil {
				log.Fatalf("-wal %s: %v", *walSpec, err)
			}
			walOpt.Logger = log.Default()
			feedbackLog, err = wal.Open(dir, walOpt)
			if err != nil {
				log.Fatalf("-wal %s: %v", *walSpec, err)
			}
			cfg.WAL = feedbackLog
			opts = append(opts, server.WithWAL(feedbackLog))
		}
		learner, err = stream.New(eng, cfg)
		if err != nil {
			log.Fatalf("-online %s: %v", *online, err)
		}
		learner.Start()
		opts = append(opts, server.WithLearner(learner))
		log.Printf("online learning enabled: models %v, publish every %v", cfg.Models, cfg.Interval)
		if feedbackLog != nil {
			c := feedbackLog.Metrics().Read()
			log.Printf("feedback WAL open: fsync=%v, %.0f segments (%.0f bytes), replayed %.0f records (%.0f corrupt skipped, %.0f torn bytes truncated)",
				feedbackLog.Policy(), c["wal.segments"], c["wal.bytes"], c["wal.replayed"], c["wal.corrupt_skipped"], c["wal.truncated_bytes"])
		}
	}
	if *rateSpec != "" {
		rate, burst, ttl, err := parseRateLimit(*rateSpec)
		if err != nil {
			log.Fatalf("-ratelimit %s: %v", *rateSpec, err)
		}
		opts = append(opts, server.WithFeedbackRateLimit(rate, burst))
		if ttl != 0 {
			opts = append(opts, server.WithFeedbackClientTTL(ttl))
		}
		log.Printf("feedback rate limit: %.0f events/s per client, burst %d", rate, burst)
	}

	// One trace ring serves both protocols, so HTTP requests and MBSP
	// frames land in a single slow-request timeline.
	ring := obs.NewTraceRing(*traceRing, *traceSlow)
	binSrv := binproto.NewServer(eng, log.Default())
	binSrv.SetTracing(ring)
	opts = append(opts, server.WithTracing(ring), server.WithBinary(binSrv))

	srv := &http.Server{
		Handler:           server.New(eng, log.Default(), opts...),
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// pprof only binds when asked, and only on its own listener: the
	// profiling surface never shares a port with serving traffic.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("-debug-addr %s: %v", *debugAddr, err)
		}
		go func() {
			log.Printf("pprof serving on %s", *debugAddr)
			if err := http.Serve(dln, dmux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
		defer dln.Close()
	}

	// One listener, two protocols: the mux sniffs each connection's
	// first bytes and routes MBSP frames to the binary scorer,
	// everything else to HTTP.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	mux := binproto.NewMux(ln, binSrv)

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving on %s (default model %q, strand cap %d: the receiving goroutine always scores, JSON + binary protocol)", *addr, *defModel, *workers)
		errc <- srv.Serve(mux)
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if learner != nil {
		learner.Close()
	}
	// The WAL closes after the learner: its final feedback may still be
	// appending. Close flushes, fsyncs and seals the manifest.
	if feedbackLog != nil {
		if err := feedbackLog.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("bye")
}

// errUnknownKey is what a spec's setter returns for a key it does not
// take.
var errUnknownKey = errors.New("unknown spec key")

// walkSpec hands each entry of a comma-separated key=value spec to set,
// in order. An entry that is not key=value, a key set answers with
// errUnknownKey (keys lists the known ones for the message) and a value
// set refuses are errors.
func walkSpec(spec, keys string, set func(key, val string) error) error {
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || val == "" {
			return fmt.Errorf("bad spec entry %q (want key=value)", part)
		}
		if err := set(key, val); errors.Is(err, errUnknownKey) {
			return fmt.Errorf("unknown spec key %q (%s)", key, keys)
		} else if err != nil {
			return fmt.Errorf("bad %s value %q: %v", key, val, err)
		}
	}
	return nil
}

// parseOnline turns the -online spec (comma-separated key=value pairs)
// into a stream.Config. "model" may repeat or join names with '+'.
func parseOnline(spec string) (stream.Config, error) {
	var cfg stream.Config
	err := walkSpec(spec, "model, interval, window, decay, shards, queue, min, iters", func(key, val string) error {
		var err error
		switch key {
		case "model", "models":
			for _, m := range strings.Split(val, "+") {
				cfg.Models = append(cfg.Models, strings.TrimSpace(m))
			}
		case "interval":
			cfg.Interval, err = time.ParseDuration(val)
		case "window":
			cfg.Window, err = strconv.Atoi(val)
		case "decay":
			cfg.Decay, err = strconv.ParseFloat(val, 64)
			if err == nil && !(cfg.Decay >= 0 && cfg.Decay <= 1) {
				err = errors.New("want a fraction in [0, 1]")
			}
		case "shards":
			cfg.Shards, err = strconv.Atoi(val)
		case "queue":
			cfg.QueueCap, err = strconv.Atoi(val)
		case "min":
			cfg.MinEvents, err = strconv.Atoi(val)
		case "iters":
			cfg.Iterations, err = strconv.Atoi(val)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil {
		return cfg, err
	}
	if len(cfg.Models) == 0 {
		return cfg, fmt.Errorf("spec needs at least one model=NAME entry")
	}
	return cfg, nil
}

// parseWAL turns the -wal spec into a directory and wal.Options. The
// fsync value may itself contain '=' (fsync=interval=100ms): Cut on
// the first '=' of each comma part keeps the rest intact.
func parseWAL(spec string) (string, wal.Options, error) {
	var dir string
	var opt wal.Options
	err := walkSpec(spec, "dir, fsync, segment, age, retain, max", func(key, val string) error {
		var err error
		switch key {
		case "dir":
			dir = val
		case "fsync":
			opt.Sync, opt.SyncInterval, err = parseFsync(val)
		case "segment":
			opt.SegmentBytes, err = parseSize(val)
		case "age":
			opt.SegmentAge, err = time.ParseDuration(val)
		case "retain":
			opt.Retention, err = time.ParseDuration(val)
		case "max":
			opt.MaxBytes, err = parseSize(val)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil {
		return "", opt, err
	}
	if dir == "" {
		return "", opt, fmt.Errorf("spec needs dir=PATH")
	}
	return dir, opt, nil
}

// parseFsync maps always | off | interval=DURATION to a sync policy.
func parseFsync(val string) (wal.SyncPolicy, time.Duration, error) {
	switch {
	case val == "always":
		return wal.SyncAlways, 0, nil
	case val == "off":
		return wal.SyncOff, 0, nil
	case strings.HasPrefix(val, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(val, "interval="))
		if err != nil {
			return 0, 0, err
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("interval must be positive")
		}
		return wal.SyncBatched, d, nil
	default:
		return 0, 0, fmt.Errorf("want always, off or interval=DURATION")
	}
}

// parseSize parses a positive byte count with an optional KB/MB/GB
// suffix (binary multiples) that fits in an int64.
func parseSize(val string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(val, "GB"):
		mult, val = 1<<30, strings.TrimSuffix(val, "GB")
	case strings.HasSuffix(val, "MB"):
		mult, val = 1<<20, strings.TrimSuffix(val, "MB")
	case strings.HasSuffix(val, "KB"):
		mult, val = 1<<10, strings.TrimSuffix(val, "KB")
	case strings.HasSuffix(val, "B"):
		val = strings.TrimSuffix(val, "B")
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("size must be positive")
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("size overflows int64")
	}
	return n * mult, nil
}

// parseRateLimit turns the -ratelimit spec into (events/s, burst,
// idle-client TTL). Burst defaults to 2x the rate, capped at
// math.MaxInt32: one batch of catch-up headroom. ttl=0 in the return
// means "use the server default".
func parseRateLimit(spec string) (float64, int, time.Duration, error) {
	var rate float64
	var burst int
	var ttl time.Duration
	err := walkSpec(spec, "rate, burst, ttl", func(key, val string) error {
		var err error
		switch key {
		case "rate":
			rate, err = strconv.ParseFloat(val, 64)
			if err == nil && (math.IsNaN(rate) || math.IsInf(rate, 1)) { // -Inf is refused below, with 0
				err = errors.New("want a finite number")
			}
		case "burst":
			burst, err = strconv.Atoi(val)
		case "ttl":
			ttl, err = time.ParseDuration(val)
		default:
			err = errUnknownKey
		}
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if rate <= 0 {
		return 0, 0, 0, fmt.Errorf("spec needs rate=EVENTS_PER_SEC > 0")
	}
	if burst <= 0 {
		// Converted only once in range: an out-of-range float-to-int
		// conversion is implementation-defined (MinInt64 on amd64).
		burst = int(min(2*rate, math.MaxInt32))
	}
	return rate, burst, ttl, nil
}

// loadArtifact installs one snapshot file into the engine through the
// trusted file load: the artifact is mapped read-only, and a micro
// model is served from the mapping (O(1) load, page cache shared
// across processes) while a click model is thawed from it.
func loadArtifact(eng *engine.Engine, name, path string) (engine.ModelInfo, error) {
	info, err := eng.LoadSnapshotFile(name, path)
	if err != nil {
		return engine.ModelInfo{}, fmt.Errorf("loading %s: %w", path, err)
	}
	return info, nil
}
