package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmap"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/binproto"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/textproc"
	"repro/internal/wal"
)

// Per-layer metrics come from two sources.
//
// R: the difference between two scrapes of the real server's /metrics
// and MemStats footer, taken right before and right after the untraced
// closed phase. Nothing in the program changes for this.
//
// T: an in-process replay of a fixed sample of the workload's request
// stream through each layer's public functions, after the server has
// stopped. Every *_ns_per_op figure from T is process CPU time divided
// by ops, so a layer that fans work out to other goroutines is billed
// for all of it, exactly as the server's /proc CPU figure bills it;
// self figures are a call's cost minus the cost of the calls below it,
// so the lines of one workload add up to the outermost call.

// layerInputs carries what the traced run measured into the per-layer
// computation.
type layerInputs struct {
	o                         *runOpts
	s                         *session
	res                       *result
	before, after             scrape
	closed, traced            closedResult
	open                      openResult
	cpuUserTicks, cpuSysTicks uint64
	runqWait                  time.Duration // server threads runnable but off-core, closed phase
	sdbnSnapshot              []byte        // published sdbn, fetched while the server was up

	spans []span // replay spans for the trace file
}

// perLayerUnits lists every per-layer metric with its unit. A traced
// run prints all of them for every workload; one that does not apply
// to the workload reads 0.
var perLayerUnits = map[string]string{
	"textproc.tokenize_ns_per_op":         "ns",
	"textproc.lookup_ns_per_op":           "ns",
	"textproc.lookup_hit_ratio":           "ratio",
	"textproc.candset_add_ns_per_op":      "ns",
	"textproc.candset_distinct_ratio":     "ratio",
	"core.score_self_ns_per_op":           "ns",
	"core.candidates_self_ns_per_op":      "ns",
	"clickmodel.clickprobs_ns_per_op":     "ns",
	"engine.batch_self_ns_per_op":         "ns",
	"engine.candidates_self_ns_per_op":    "ns",
	"engine.topk_ns_per_call":             "ns",
	"engine.resolve_ns":                   "ns",
	"engine.stage_batch_us":               "us",
	"engine.install_us":                   "us",
	"binproto.serve_self_ns_per_op":       "ns",
	"binproto.frame_service_us":           "us",
	"binproto.client_encode_ns_per_op":    "ns",
	"binproto.client_decode_ns_per_op":    "ns",
	"server.json_handle_self_ns_per_op":   "ns",
	"server.json_decode_ns_per_op":        "ns",
	"server.json_encode_ns_per_op":        "ns",
	"server.http_route_us":                "us",
	"server.feedback_handle_us_per_event": "us",
	"stream.ingest_ns_per_event":          "ns",
	"stream.fold_lag_ms":                  "ms",
	"stream.publish_ms":                   "ms",
	"stream.publishes":                    "count",
	"stream.dropped_ratio":                "ratio",
	"wal.append_ns_per_event":             "ns",
	"wal.bytes_per_event":                 "B",
	"wal.sync_ms":                         "ms",
	"wal.syncs":                           "count",
	"wal.flushes":                         "count",
	"wal.replay_events_per_s":             "1/s",
	"snapshot.load_v1_ms":                 "ms",
	"snapshot.load_v2_us":                 "us",
	"mmap.open_us":                        "us",
	"obs.record_ns":                       "ns",
	"obs.tax_share":                       "ratio",
	"proc.mallocs_per_op":                 "count",
	"proc.alloc_bytes_per_op":             "B",
	"proc.gc_cycles_per_s":                "1/s",
	"proc.gc_pause_ms_per_s":              "ms/s",
	"proc.cpu_sys_share":                  "ratio",
	"proc.runq_wait_us_per_req":           "us",
	"net.residual_us_per_req":             "us",
	"gen.sched_lag_p99_ms":                "ms",
	"gen.completed_share":                 "ratio",
	"gen.queued_share":                    "ratio",
	"gen.cpu_us_per_op":                   "us",
	"gen.offered_ops_s":                   "ops/s",
	"gen.failed_share":                    "ratio",
	"trace.overhead_share":                "ratio",
	// Demoted from the end-to-end list: it cannot repeat within a fifth
	// on the sandbox (see README "Measured spread").
	"lat_p99_ms": "ms",
}

func (l *layerInputs) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("per-layer metric " + name + " is not declared in perLayerUnits")
	}
	l.res.PerLayer[name] = metric{v, unit}
}

func (l *layerInputs) get(name string) float64 { return l.res.PerLayer[name].Value }

// fetchLive collects what only the running server can give.
func (l *layerInputs) fetchLive() error {
	if l.o.spec.Name != "mixed_online" {
		return nil
	}
	resp, err := httpGet("http://" + l.s.sp.addr + "/v1/models/sdbn/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	l.sdbnSnapshot, err = io.ReadAll(resp.Body)
	return err
}

// measure fills res.PerLayer, res.Budget and writes the trace file.
// The server is already stopped.
func (l *layerInputs) measure() error {
	for name := range perLayerUnits {
		l.set(name, 0)
	}
	l.fromScrapes()
	if err := l.replayCommon(); err != nil {
		return err
	}
	var err error
	switch l.o.spec.Name {
	case "score_mbsp", "score_json":
		err = l.replayScore()
	case "optimize_mbsp":
		err = l.replayOptimize()
	case "mixed_online":
		err = l.replayMixed()
	}
	if err != nil {
		return err
	}
	l.res.Budget = l.buildBudget()
	path, err := writeTrace(l.o.outDir, l.o.spec.Name, l.traced.Spans, l.spans)
	if err != nil {
		return err
	}
	l.res.TraceFile = path
	return nil
}

// opsCompleted is the closed phase's op count: the divisor of every
// per-op figure taken from the real run.
func (l *layerInputs) opsCompleted() float64 {
	if l.closed.GoodOps == 0 {
		return 1
	}
	return float64(l.closed.GoodOps)
}

// fromScrapes computes every R metric plus the generator's own report.
func (l *layerInputs) fromScrapes() {
	b, a := l.before.prom, l.after.prom
	ops := l.opsCompleted()
	secs := l.closed.Elapsed.Seconds()

	l.set("proc.mallocs_per_op", float64(l.after.mem.Mallocs-l.before.mem.Mallocs)/ops)
	l.set("proc.alloc_bytes_per_op", float64(l.after.mem.TotalAlloc-l.before.mem.TotalAlloc)/ops)
	l.set("proc.gc_cycles_per_s", float64(l.after.mem.NumGC-l.before.mem.NumGC)/secs)
	l.set("proc.gc_pause_ms_per_s", pauseBetween(l.before.mem, l.after.mem).Seconds()*1e3/secs)
	if total := l.cpuUserTicks + l.cpuSysTicks; total > 0 {
		l.set("proc.cpu_sys_share", float64(l.cpuSysTicks)/float64(total))
	}

	if l.closed.Requests > 0 {
		l.set("proc.runq_wait_us_per_req", float64(l.runqWait.Microseconds())/float64(l.closed.Requests))
	}

	const engFam = "microserve_engine_stage_duration_seconds"
	_, resolve := histDelta(b, a, engFam, `stage="resolve"`)
	l.set("engine.resolve_ns", resolve*1e9)
	stage := `stage="batch"`
	if l.o.spec.Name == "optimize_mbsp" {
		stage = `stage="candidates"` // the optimize path's engine stage
	}
	_, batch := histDelta(b, a, engFam, stage)
	l.set("engine.stage_batch_us", batch*1e6)

	_, frame := histDelta(b, a, "microserve_mbsp_frame_duration_seconds", "")
	l.set("binproto.frame_service_us", frame*1e6)
	route := `route="score_batch"`
	if l.o.spec.Name == "mixed_online" {
		route = `route="feedback"`
	}
	_, routeMean := histDelta(b, a, "microserve_http_request_duration_seconds", route)
	l.set("server.http_route_us", routeMean*1e6)

	const streamFam = "microserve_stream_stage_duration_seconds"
	_, foldLag := histDelta(b, a, streamFam, `stage="fold_lag"`)
	_, publish := histDelta(b, a, streamFam, `stage="publish"`)
	l.set("stream.fold_lag_ms", foldLag*1e3)
	l.set("stream.publish_ms", publish*1e3)
	l.set("stream.publishes", counterDelta(b, a, "microserve_stream_publishes_total"))
	accepted := counterDelta(b, a, "microserve_stream_accepted_total")
	dropped := counterDelta(b, a, "microserve_stream_dropped_total")
	if accepted+dropped > 0 {
		l.set("stream.dropped_ratio", dropped/(accepted+dropped))
	}

	_, sync := histDelta(b, a, "microserve_wal_op_duration_seconds", `op="sync"`)
	l.set("wal.sync_ms", sync*1e3)
	l.set("wal.syncs", counterDelta(b, a, "microserve_wal_syncs_total"))
	l.set("wal.flushes", counterDelta(b, a, "microserve_wal_flushes_total"))
	if appended := counterDelta(b, a, "microserve_wal_appended_total"); appended > 0 {
		l.set("wal.bytes_per_event", counterDelta(b, a, "microserve_wal_bytes")/appended)
	}

	// The part of a round trip no layer of the program owns: socket,
	// kernel and scheduler. The latency lanes speak MBSP on every
	// workload but score_json.
	service := l.get("binproto.frame_service_us")
	if l.o.spec.Name == "score_json" {
		service = l.get("server.http_route_us")
	}
	if len(l.closed.WireUS) > 0 {
		l.set("net.residual_us_per_req", median(l.closed.WireUS)-service)
	}

	l.set("lat_p99_ms", l.res.LatP99MS)
	l.set("gen.sched_lag_p99_ms", l.open.LagP99MS)
	l.set("gen.completed_share", l.open.CompletedShare())
	l.set("gen.queued_share", l.open.QueuedShare)
	l.set("gen.offered_ops_s", l.open.Offered)
	l.set("gen.cpu_us_per_op", float64(l.closed.GenCPU.Microseconds())/ops)
	l.set("gen.failed_share", l.res.FailedShare)
	if l.traced.Elapsed > 0 && l.closed.GoodOps > 0 {
		untraced := float64(l.closed.GoodOps) / l.closed.Elapsed.Seconds()
		tracedRate := float64(l.traced.GoodOps) / l.traced.Elapsed.Seconds()
		l.set("trace.overhead_share", 1-tracedRate/untraced)
	}
}

// call is one layer function of a replay set and, after run, its
// process CPU per request (median over the rounds).
type call struct {
	name  string
	fn    func(i int)
	cpuNS float64
}

// replaySet times several layer functions over the same sample of n
// requests. The sample is cut into replayRounds blocks and the
// functions take turns block by block, so a drift in machine speed
// during the replay hits every function alike instead of whichever
// happened to run last; a function's CPU per request is the median of
// its per-block means. Functions run in the order they were added, so
// one may consume what an earlier one produced for the same requests.
type replaySet struct {
	l     *layerInputs
	n     int
	calls []*call
}

const replayRounds = 4

func (l *layerInputs) newSet(n int) *replaySet { return &replaySet{l: l, n: n} }

// add registers fn. Each timed call becomes a replay span called name;
// an empty name keeps none.
func (rs *replaySet) add(name string, fn func(i int)) *call {
	c := &call{name: name, fn: fn}
	rs.calls = append(rs.calls, c)
	return c
}

func (rs *replaySet) run() {
	for _, c := range rs.calls {
		for i := 0; i < rs.n && i < 32; i++ {
			c.fn(i) // warm buffers and caches before anything is timed
		}
	}
	perRound := make([][]float64, len(rs.calls))
	for r := 0; r < replayRounds; r++ {
		lo, hi := r*rs.n/replayRounds, (r+1)*rs.n/replayRounds
		if hi == lo {
			continue
		}
		runtime.GC() // every round starts from the same heap state
		for ci, c := range rs.calls {
			cpu0 := selfCPU()
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				c.fn(i)
				t1 := time.Now()
				if c.name != "" {
					rs.l.spans = append(rs.l.spans, span{Name: c.name, Req: replayReq(i), Start: t0, End: t1})
				}
			}
			perRound[ci] = append(perRound[ci], float64(selfCPU()-cpu0)/float64(hi-lo))
		}
	}
	for ci, c := range rs.calls {
		c.cpuNS = median(perRound[ci])
	}
}

// selfNS is a call's CPU per op minus the calls below it, floored at
// zero: a negative remainder is measurement noise, not negative work.
func selfNS(outer *call, ops float64, inner ...*call) float64 {
	v := outer.cpuNS
	for _, c := range inner {
		v -= c.cpuNS
	}
	if v < 0 {
		v = 0
	}
	return v / ops
}

// newReplayEngine builds an engine configured like microserve's:
// GOMAXPROCS workers, the artifact mapped, instrumented unless bare.
func (l *layerInputs) newReplayEngine(bare bool) (*engine.Engine, error) {
	opts := []engine.Option{engine.WithWorkers(runtime.GOMAXPROCS(0))}
	if !bare {
		opts = append(opts, engine.WithObserver(&engine.Observer{}))
	}
	eng := engine.New(opts...)
	if _, err := eng.LoadSnapshotFile(engine.NameMicro, l.s.in.artifact); err != nil {
		return nil, err
	}
	return eng, nil
}

// frozenVocab rebuilds the model's vocabulary view from the artifact's
// sections (tags documented in internal/core/v2.go), so term lookup can
// be timed apart from scoring.
func (l *layerInputs) frozenVocab() (*textproc.FrozenVocab, error) {
	a := l.s.in.art.V2Artifact
	blob, err := a.BytesView("v.blob")
	if err != nil {
		return nil, err
	}
	offs, err := a.Uint32sView("v.offs")
	if err != nil {
		return nil, err
	}
	tab, err := a.Int32sView("v.tabl")
	if err != nil {
		return nil, err
	}
	return textproc.NewFrozenVocab(blob, offs, tab)
}

// lookupWindows tokenises line and resolves every 1..maxN-gram window,
// the same walk CompiledModel.ScoreSnippet does.
func lookupWindows(sc *textproc.Scratch, v *textproc.FrozenVocab, line string, hits, lookups *int) {
	spans := sc.Tokenize(line)
	for i := range spans {
		h := textproc.NGramHashSeed
		for n := 1; n <= maxN && i+n <= len(spans); n++ {
			sp := spans[i+n-1]
			h = textproc.ExtendNGramHash(h, sp.Hash)
			*lookups++
			if _, ok := v.LookupHashed(h, sc.Norm[spans[i].Start:sp.End]); ok {
				*hits++
			}
		}
	}
}

// tapedServer lets the replay run the repo's own binproto.Client
// twice over the same calls: live, against a binproto.Server on a
// net.Pipe, recording what the server sent back for each call; and
// codec, against that recording alone, where a call costs the client's
// encode and decode and nothing of a server. Both clients must be
// given the same calls in the same order (a replaySet does exactly
// that), so the request tag the recording echoes is the tag the codec
// client expects; a client that falls out of step reports a tag
// mismatch, which err keeps.
type tapedServer struct {
	live, codec *binproto.Client
	rec         recordConn
	play        playConn
	tapes       [][]byte // what the server sent back for call i
	cancel      context.CancelFunc
	done        chan struct{}
	err         error
}

// recordConn copies everything read from the connection to tape.
type recordConn struct {
	net.Conn
	tape []byte
}

func (c *recordConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tape = append(c.tape, p[:n]...)
	return n, err
}

// playConn swallows writes and serves reads from in.
type playConn struct {
	net.Conn // nil: the client calls nothing but Read, Write and Close
	in       []byte
}

func (c *playConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *playConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *playConn) Close() error { return nil }

func newTapedServer(eng *engine.Engine, calls int) *tapedServer {
	cli, srv := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	ts := &tapedServer{tapes: make([][]byte, calls), cancel: cancel, done: make(chan struct{})}
	ts.rec.Conn = cli
	ts.live = binproto.NewClient(&ts.rec)
	ts.codec = binproto.NewClient(&ts.play)
	bs := binproto.NewServer(eng, nil)
	go func() {
		defer close(ts.done)
		bs.ServeConn(ctx, srv)
	}()
	return ts
}

// liveCall runs call i against the server through fn and keeps the
// reply bytes; codecCall runs the same call against those bytes.
func (ts *tapedServer) liveCall(i int, fn func(*binproto.Client) error) {
	ts.rec.tape = ts.rec.tape[:0]
	if err := fn(ts.live); err != nil && ts.err == nil {
		ts.err = fmt.Errorf("replaying call %d over net.Pipe: %w", i, err)
	}
	ts.tapes[i] = append(ts.tapes[i][:0], ts.rec.tape...)
}

func (ts *tapedServer) codecCall(i int, fn func(*binproto.Client) error) {
	ts.play.in = ts.tapes[i]
	if err := fn(ts.codec); err != nil && ts.err == nil {
		ts.err = fmt.Errorf("decoding the recorded reply of call %d: %w", i, err)
	}
}

func (ts *tapedServer) close() {
	ts.live.Close()
	ts.cancel()
	<-ts.done
}

// replayCommon measures what every workload shares: artifact install
// and load paths in both formats, and the histogram primitive.
func (l *layerInputs) replayCommon() error {
	in := l.s.in
	timeIt := func(reps int, fn func() error) (float64, error) {
		var ds []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			ds = append(ds, float64(time.Since(t0)))
		}
		return median(ds), nil
	}

	// Hot install: new versions of a name the engine already serves,
	// including the copy-on-write table swap and pruning (and
	// unmapping) the version that falls out of the keep window.
	eng, err := l.newReplayEngine(false)
	if err != nil {
		return err
	}
	d, err := timeIt(25, func() error {
		_, err := eng.LoadSnapshotFile(engine.NameMicro, in.artifact)
		return err
	})
	if err != nil {
		return err
	}
	l.set("engine.install_us", d/1e3)

	// Cold load of the same model in both artifact formats.
	d, err = timeIt(15, func() error {
		_, err := engine.New().LoadSnapshotFile(engine.NameMicro, in.artifact)
		return err
	})
	if err != nil {
		return err
	}
	l.set("snapshot.load_v2_us", d/1e3)
	v1 := filepath.Join(l.s.runDir, "micro-v1.bin")
	model := plantedModel(in.seed)
	if err := snapshot.WriteFileAtomic(v1, func(w io.Writer) error { return model.Save(w) }); err != nil {
		return err
	}
	d, err = timeIt(3, func() error {
		_, err := engine.New().LoadSnapshotFile(engine.NameMicro, v1)
		return err
	})
	if err != nil {
		return err
	}
	l.set("snapshot.load_v1_ms", d/1e6)
	d, err = timeIt(25, func() error {
		a, err := mmap.Open(in.artifact)
		if err == nil {
			a.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	l.set("mmap.open_us", d/1e3)

	var h obs.Histogram
	const records = 1 << 20
	t0 := time.Now()
	for i := uint64(0); i < records; i++ {
		h.Record(i)
	}
	l.set("obs.record_ns", float64(time.Since(t0))/records)
	return nil
}

// replayScore measures score_mbsp and score_json: the kernel layers
// under one frame of scoreBatch snippets, the engine over them, and
// the protocol layer over the engine.
func (l *layerInputs) replayScore() error {
	in := l.s.in
	frames := in.scoreFrames
	frame := func(i int) []engine.Request { return frames[i%len(frames)] }
	ops := float64(scoreBatch)
	isJSON := l.o.spec.Name == "score_json"
	vocab, err := l.frozenVocab()
	if err != nil {
		return err
	}
	eng, err := l.newReplayEngine(false)
	if err != nil {
		return err
	}
	bare, err := l.newReplayEngine(true)
	if err != nil {
		return err
	}
	ctx := context.Background()
	set := l.newSet(replaySample)

	var sc textproc.Scratch
	tok := set.add("textproc.tokenize", func(i int) {
		for _, r := range frame(i) {
			for _, line := range r.Lines {
				sc.Tokenize(line)
			}
		}
	})
	var hits, lookups int
	look := set.add("textproc.lookup", func(i int) {
		for _, r := range frame(i) {
			for _, line := range r.Lines {
				lookupWindows(&sc, vocab, line, &hits, &lookups)
			}
		}
	})
	score := set.add("core.score", func(i int) {
		for _, r := range frame(i) {
			in.ref.ScoreSnippet(r.Lines, maxN, &sc)
		}
	})
	var resps []engine.Response
	batch := set.add("engine.batch", func(i int) {
		resps = eng.ScoreBatchInto(ctx, frame(i), resps)
	})
	batchBare := set.add("", func(i int) {
		resps = bare.ScoreBatchInto(ctx, frame(i), resps)
	})

	// The client's codec: encoding every sample frame, and decoding the
	// result payloads a real server sends back for them.
	var buf []byte
	enc := set.add("binproto.client_encode", func(i int) {
		buf, _ = binproto.AppendRequests(buf[:0], frame(i))
	})
	ts := newTapedServer(eng, replaySample)
	defer ts.close()
	score1 := func(i int) func(*binproto.Client) error {
		return func(c *binproto.Client) error { _, err := c.ScoreBatch(frame(i)); return err }
	}
	serve := set.add("binproto.serve", func(i int) { ts.liveCall(i, score1(i)) })
	codec := set.add("binproto.client_codec", func(i int) { ts.codecCall(i, score1(i)) })

	// score_json: the handler over the same engine, and encoding/json
	// over the same wire structs as a proxy for the handler's two halves.
	var handle, jdec, jenc *call
	status := http.StatusOK
	if isJSON {
		srv := server.New(eng, nil)
		bodies := make([][]byte, len(frames))
		for f := range frames {
			if bodies[f], err = json.Marshal(scoreBody{Requests: frames[f]}); err != nil {
				return err
			}
		}
		handle = set.add("server.handle", func(i int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/score/batch", bytes.NewReader(bodies[i%len(bodies)]))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				status = rec.Code
			}
		})
		jdec = set.add("server.json_decode", func(i int) {
			var body scoreBody
			d := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)]))
			d.DisallowUnknownFields()
			_ = d.Decode(&body)
		})
		reply := scoreReplyBody{Responses: eng.ScoreBatch(ctx, frames[0])}
		var je jsonEncoder
		jenc = set.add("server.json_encode", func(i int) {
			_, _ = je.encode(&reply)
		})
	}

	set.run()
	if ts.err != nil {
		return ts.err
	}
	if status != http.StatusOK {
		return fmt.Errorf("replayed POST /v1/score/batch answered %d", status)
	}

	l.set("textproc.tokenize_ns_per_op", tok.cpuNS/ops)
	l.set("textproc.lookup_ns_per_op", selfNS(look, ops, tok))
	if lookups > 0 {
		l.set("textproc.lookup_hit_ratio", float64(hits)/float64(lookups))
	}
	l.set("core.score_self_ns_per_op", selfNS(score, ops, look))
	l.set("engine.batch_self_ns_per_op", selfNS(batch, ops, score))
	if batch.cpuNS > 0 {
		l.set("obs.tax_share", (batch.cpuNS-batchBare.cpuNS)/batch.cpuNS)
	}
	l.set("binproto.client_encode_ns_per_op", enc.cpuNS/ops)
	l.set("binproto.client_decode_ns_per_op", selfNS(codec, ops, enc))
	if isJSON {
		l.set("server.json_handle_self_ns_per_op", selfNS(handle, ops, batch))
		l.set("server.json_decode_ns_per_op", jdec.cpuNS/ops)
		l.set("server.json_encode_ns_per_op", jenc.cpuNS/ops)
	} else {
		l.set("binproto.serve_self_ns_per_op", selfNS(serve, ops, batch, codec))
	}
	return nil
}

// replayOptimize measures optimize_mbsp: the candidate set's line
// dedup and term memo, the amortised scoring pass over it, the engine
// and top-k around that, and the protocol layer around the engine.
func (l *layerInputs) replayOptimize() error {
	in := l.s.in
	reqs := in.optReqs
	ops := float64(optimizeCands)
	vocab, err := l.frozenVocab()
	if err != nil {
		return err
	}
	eng, err := l.newReplayEngine(false)
	if err != nil {
		return err
	}
	ctx := context.Background()

	// What the server scores: the base snippet followed by the candidates.
	all := make([][][]string, len(reqs))
	distinct := make([][]string, len(reqs))
	totalLines, distinctLines := 0, 0
	for f := range reqs {
		all[f] = append([][]string{reqs[f].Lines}, reqs[f].Candidates...)
		seen := map[string]bool{}
		for _, cand := range all[f] {
			for _, line := range cand {
				totalLines++
				if !seen[line] {
					seen[line] = true
					distinct[f] = append(distinct[f], line)
				}
			}
		}
		distinctLines += len(distinct[f])
	}
	l.set("textproc.candset_distinct_ratio", float64(distinctLines)/float64(totalLines))

	set := l.newSet(replaySample)
	var sc textproc.Scratch
	tok := set.add("textproc.tokenize", func(i int) {
		for _, line := range distinct[i%len(distinct)] {
			sc.Tokenize(line)
		}
	})
	var hits, lookups int
	look := set.add("textproc.lookup", func(i int) {
		for _, line := range distinct[i%len(distinct)] {
			lookupWindows(&sc, vocab, line, &hits, &lookups)
		}
	})
	var cset textproc.CandidateSet
	candset := set.add("textproc.candset", func(i int) {
		cset.Reset()
		for _, cand := range all[i%len(all)] {
			for _, line := range cand {
				cset.AddLine(line)
			}
		}
		for id := 0; id < cset.Len(); id++ {
			cset.Terms(textproc.LineID(id), maxN, vocab)
		}
	})
	var cs core.CandidateScratch
	var scores []core.CandidateScore
	cands := set.add("core.candidates", func(i int) {
		scores = in.ref.ScoreCandidates(all[i%len(all)], maxN, &cs, scores)
	})
	var engErr error
	engCands := set.add("engine.candidates", func(i int) {
		var err error
		if scores, _, err = eng.ScoreCandidates(ctx, engine.NameMicro, all[i%len(all)], maxN, scores); err != nil {
			engErr = err
		}
	})
	var topk engine.TopK
	top := set.add("engine.topk", func(i int) {
		topk.Reset(optimizeTopK)
		for k := 1; k < len(scores); k++ {
			topk.Offer(k-1, scores[k].CTR)
		}
		topk.Sorted()
	})
	var buf []byte
	enc := set.add("binproto.client_encode", func(i int) {
		buf, _ = binproto.AppendOptimize(buf[:0], &reqs[i%len(reqs)])
	})
	ts := newTapedServer(eng, replaySample)
	defer ts.close()
	opt1 := func(i int) func(*binproto.Client) error {
		return func(c *binproto.Client) error { _, err := c.Optimize(reqs[i%len(reqs)]); return err }
	}
	serve := set.add("binproto.serve", func(i int) { ts.liveCall(i, opt1(i)) })
	codec := set.add("binproto.client_codec", func(i int) { ts.codecCall(i, opt1(i)) })

	set.run()
	if engErr != nil {
		return engErr
	}
	if ts.err != nil {
		return ts.err
	}

	l.set("textproc.tokenize_ns_per_op", tok.cpuNS/ops)
	l.set("textproc.lookup_ns_per_op", selfNS(look, ops, tok))
	if lookups > 0 {
		l.set("textproc.lookup_hit_ratio", float64(hits)/float64(lookups))
	}
	l.set("textproc.candset_add_ns_per_op", selfNS(candset, ops, look))
	l.set("core.candidates_self_ns_per_op", selfNS(cands, ops, candset))
	l.set("engine.candidates_self_ns_per_op", selfNS(engCands, ops, cands))
	l.set("engine.topk_ns_per_call", top.cpuNS)
	l.set("binproto.client_encode_ns_per_op", enc.cpuNS/ops)
	l.set("binproto.client_decode_ns_per_op", selfNS(codec, ops, enc))
	l.set("binproto.serve_self_ns_per_op", selfNS(serve, ops, engCands, top, codec))
	return nil
}

// replayMixed measures mixed_online's write path layer by layer —
// feedback handler, JSON decode, learner ingest, WAL append and replay
// — and the reader's macro scoring on the sdbn the run published.
func (l *layerInputs) replayMixed() error {
	in := l.s.in
	bodies := make([][]byte, len(in.feedback))
	for i := range in.feedback {
		var err error
		if bodies[i], err = json.Marshal(&in.feedback[i]); err != nil {
			return err
		}
	}
	perBody := float64(feedbackSess + feedbackSnips)

	// Learners configured like the server's (-online spec in
	// serverFlags), without a WAL, so handler and ingest are timed apart
	// from durability.
	newLearner := func() (*stream.Learner, error) {
		eng, err := l.newReplayEngine(false)
		if err != nil {
			return nil, err
		}
		lr, err := stream.New(eng, stream.Config{
			Models: []string{"sdbn", engine.NameMicro}, Interval: 2 * time.Second,
			MinEvents: 100, QueueCap: 131072,
		})
		if err != nil {
			return nil, err
		}
		lr.Start()
		return lr, nil
	}
	handlerLearner, err := newLearner()
	if err != nil {
		return err
	}
	defer handlerLearner.Close()
	ingestLearner, err := newLearner()
	if err != nil {
		return err
	}
	defer ingestLearner.Close()
	// WAL append goes to a scratch log beside the run's own, same policy.
	scratchDir := filepath.Join(l.s.runDir, "wal-append")
	scratchLog, err := wal.Open(scratchDir, wal.Options{Sync: wal.SyncBatched, SyncInterval: 100 * time.Millisecond})
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratchDir)

	// Connection B's macro half runs on the sdbn version the run's
	// learner published.
	m, err := clickmodel.LoadModel(bytes.NewReader(l.sdbnSnapshot))
	if err != nil {
		scratchLog.Close()
		return fmt.Errorf("loading the published sdbn: %w", err)
	}
	scorer, ok := m.(clickmodel.InplaceScorer)
	if !ok {
		scratchLog.Close()
		return fmt.Errorf("published %s has no in-place scorer", m.Name())
	}

	set := l.newSet(replaySample)
	srv := server.New(engine.New(), nil, server.WithLearner(handlerLearner))
	status := http.StatusOK
	handle := set.add("server.feedback", func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			status = rec.Code
		}
	})
	jdec := set.add("server.json_decode", func(i int) {
		var body feedbackBody
		d := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)]))
		d.DisallowUnknownFields()
		_ = d.Decode(&body)
	})
	ingest := set.add("stream.ingest", func(i int) {
		fb := &in.feedback[i%len(in.feedback)]
		for j := range fb.Sessions {
			_ = ingestLearner.Ingest(stream.Event{Session: &fb.Sessions[j]})
		}
		for j := range fb.Snippets {
			_ = ingestLearner.Ingest(stream.Event{Snippet: &fb.Snippets[j]})
		}
	})
	var appendErr error
	app := set.add("wal.append", func(i int) {
		fb := &in.feedback[i%len(in.feedback)]
		for j := range fb.Sessions {
			if _, err := scratchLog.Append(wal.Record{Session: &fb.Sessions[j]}); err != nil {
				appendErr = err
			}
		}
		for j := range fb.Snippets {
			sn := &fb.Snippets[j]
			if _, err := scratchLog.Append(wal.Record{SnippetLines: sn.Lines, Impressions: sn.Impressions, Clicks: sn.Clicks}); err != nil {
				appendErr = err
			}
		}
	})
	var pbuf []float64
	sessions := 0
	for _, r := range in.mixedFrames[0] {
		if r.Session != nil {
			sessions++
		}
	}
	probs := set.add("clickmodel.clickprobs", func(i int) {
		for _, r := range in.mixedFrames[i%len(in.mixedFrames)] {
			if r.Session != nil {
				pbuf = scorer.ClickProbsInto(*r.Session, pbuf)
			}
		}
	})

	set.run()
	if err := scratchLog.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return fmt.Errorf("wal append replay: %w", appendErr)
	}
	if status != http.StatusOK {
		return fmt.Errorf("replayed POST /v1/feedback answered %d", status)
	}
	l.set("server.feedback_handle_us_per_event", handle.cpuNS/perBody/1e3)
	l.set("server.json_decode_ns_per_op", jdec.cpuNS/perBody)
	l.set("stream.ingest_ns_per_event", ingest.cpuNS/perBody)
	l.set("wal.append_ns_per_event", app.cpuNS/perBody)
	l.set("clickmodel.clickprobs_ns_per_op", probs.cpuNS/float64(sessions))

	// Boot-time replay of the log the run itself produced.
	t0 := time.Now()
	runLog, err := wal.Open(filepath.Join(l.s.runDir, "wal"), wal.Options{})
	if err != nil {
		return err
	}
	replayed := 0
	err = runLog.Replay(func(uint64, *wal.Record) error { replayed++; return nil })
	took := time.Since(t0)
	if cerr := runLog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replaying the run's wal: %w", err)
	}
	if replayed > 0 {
		l.set("wal.replay_events_per_s", float64(replayed)/took.Seconds())
	}
	return nil
}
