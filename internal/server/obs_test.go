package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server/binproto"
	"repro/internal/stream"
	"repro/internal/wal"
)

// newObservedServer wires the full observability stack the way
// cmd/microserve does: instrumented engine, learner, WAL, the MBSP
// server's counters, trace ring with threshold 0 (every request traces).
func newObservedServer(t *testing.T) (*httptest.Server, *engine.Engine, *obs.TraceRing) {
	t.Helper()
	sessions := testSessions(300)
	eo := &engine.Observer{}
	eng := engine.New(engine.WithWorkers(2), engine.WithObserver(eo))
	if _, err := eng.Fit("pbm", mustCompile(t, sessions[:200]), 5); err != nil {
		t.Fatal(err)
	}
	eng.UseMicro(testMicroModel())

	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	l, err := stream.New(eng, stream.Config{Models: []string{engine.NameMicro}, WAL: w})
	if err != nil {
		t.Fatal(err)
	}

	ring := obs.NewTraceRing(16, 0)
	ts := httptest.NewServer(New(eng, nil,
		WithLearner(l), WithWAL(w), WithTracing(ring), WithBinary(binproto.NewServer(eng, nil))))
	t.Cleanup(ts.Close)
	return ts, eng, ring
}

func TestRequestIDEcho(t *testing.T) {
	ts, _, _ := newObservedServer(t)

	// Client-supplied ID is echoed verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-pinned-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-pinned-42" {
		t.Errorf("echoed ID %q, want client-pinned-42", got)
	}

	// Without one, the server mints a process-unique ID.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "mb-") {
		t.Errorf("minted ID %q does not carry the mb- prefix", got)
	}
}

func TestDebugTraces(t *testing.T) {
	ts, _, ring := newObservedServer(t)

	var sr engine.Response
	if code := postJSON(t, ts.URL+"/v1/score", engine.Request{
		Lines: []string{"Acme Air", "Find cheap flights to Rome"},
	}, &sr); code != http.StatusOK {
		t.Fatalf("score status %d", code)
	}

	var body struct {
		Enabled     bool        `json:"enabled"`
		ThresholdMS float64     `json:"threshold_ms"`
		Traces      []obs.Trace `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &body); code != http.StatusOK {
		t.Fatalf("debug/traces status %d", code)
	}
	if !body.Enabled {
		t.Fatal("tracing reported disabled with a ring attached")
	}
	if len(body.Traces) == 0 {
		t.Fatal("no traces captured at threshold 0")
	}
	var scoreTrace *obs.Trace
	for i := range body.Traces {
		if body.Traces[i].Kind == "score" {
			scoreTrace = &body.Traces[i]
			break
		}
	}
	if scoreTrace == nil {
		t.Fatalf("no score trace among %d traces", len(body.Traces))
	}
	if scoreTrace.Proto != "http" || !strings.HasPrefix(scoreTrace.ID, "mb-") {
		t.Errorf("score trace identity (%q, %q)", scoreTrace.Proto, scoreTrace.ID)
	}
	if scoreTrace.Model != sr.Model || scoreTrace.Items != 1 {
		t.Errorf("score trace shape (%q, %d), want (%q, 1)", scoreTrace.Model, scoreTrace.Items, sr.Model)
	}
	if len(scoreTrace.Stages) != 2 {
		t.Errorf("score trace has %d stages, want decode+score", len(scoreTrace.Stages))
	}
	if ring.Added() == 0 {
		t.Error("ring reports nothing added")
	}
}

// TestDebugTracesDisabled pins the shape when no ring is attached.
func TestDebugTracesDisabled(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var body tracesBody
	if code := getJSON(t, ts.URL+"/debug/traces", &body); code != http.StatusOK {
		t.Fatalf("debug/traces status %d", code)
	}
	if body.Enabled || len(body.Traces) != 0 {
		t.Errorf("disabled tracing body = %+v", body)
	}
}

// TestMetricsHistogramExposition drives traffic through every
// instrumented subsystem and asserts /metrics carries valid histogram
// exposition (_bucket/_sum/_count) for server, engine, stream and WAL.
func TestMetricsHistogramExposition(t *testing.T) {
	ts, _, _ := newObservedServer(t)

	if code := postJSON(t, ts.URL+"/v1/score", engine.Request{
		Lines: []string{"Acme Air", "Find cheap flights to Rome"},
	}, &engine.Response{}); code != http.StatusOK {
		t.Fatalf("score status %d", code)
	}
	var fr feedbackResponse
	if code := postJSON(t, ts.URL+"/v1/feedback", map[string]any{
		"snippet": map[string]any{"lines": []string{"cheap flights"}, "impressions": 10, "clicks": 2},
	}, &fr); code != http.StatusOK {
		t.Fatalf("feedback status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)

	for _, family := range []string{
		"microserve_http_request_duration_seconds",
		"microserve_engine_stage_duration_seconds",
		"microserve_stream_stage_duration_seconds",
		"microserve_wal_op_duration_seconds",
		"microserve_model_predicted_ctr",
	} {
		if !strings.Contains(text, "# TYPE "+family+" histogram") {
			t.Errorf("missing histogram TYPE header for %s", family)
		}
		if !strings.Contains(text, family+"_bucket{") {
			t.Errorf("missing _bucket series for %s", family)
		}
		if !strings.Contains(text, family+"_count") {
			t.Errorf("missing _count for %s", family)
		}
	}
	if !strings.Contains(text, `microserve_http_request_duration_seconds_bucket{route="score",le="+Inf"} 1`) {
		t.Error("score route histogram did not count the scored request")
	}
	if !strings.Contains(text, "microserve_build_info{go_version=") {
		t.Error("missing microserve_build_info")
	}
	if !strings.Contains(text, "microserve_uptime_seconds") {
		t.Error("missing microserve_uptime_seconds")
	}
}

// TestHealthzObservability checks the new healthz fields: build
// identity, uptime and the drift block once a second version with a
// pinned baseline is serving.
func TestHealthzObservability(t *testing.T) {
	ts, eng, _ := newObservedServer(t)

	// Score some traffic so v1's CTR histogram has samples, then
	// install a second micro version: its baseline pins v1's live
	// distribution and the drift block appears.
	for i := 0; i < 20; i++ {
		if code := postJSON(t, ts.URL+"/v1/score", engine.Request{
			Lines: []string{"Acme Air", "Find cheap flights to Rome"},
		}, &engine.Response{}); code != http.StatusOK {
			t.Fatalf("score status %d", code)
		}
	}
	eng.UseMicro(testMicroModel())
	if code := postJSON(t, ts.URL+"/v1/score", engine.Request{
		Lines: []string{"Acme Air", "Find cheap flights to Rome"},
	}, &engine.Response{}); code != http.StatusOK {
		t.Fatal("score after reinstall failed")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Build         obs.BuildInfo        `json:"build"`
		UptimeSeconds float64              `json:"uptime_seconds"`
		Drift         []engine.DriftStatus `json:"drift"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Build.GoVersion == "" {
		t.Error("healthz build block missing go_version")
	}
	if body.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", body.UptimeSeconds)
	}
	if len(body.Drift) != 1 {
		t.Fatalf("drift block has %d entries, want 1: %+v", len(body.Drift), body.Drift)
	}
	d := body.Drift[0]
	if d.Model != engine.NameMicro || d.Version != 2 || d.BaselineVersion != 1 {
		t.Errorf("drift entry = %+v", d)
	}
	if d.L1 != 0 {
		t.Errorf("identical model refit drifted: L1 = %v", d.L1)
	}
}

// TestMemoCountersExposed: the engine's snippet memo can be asked what
// it did. Three scores of one snippet are a first sight, a store and a
// hit, and the engine's list, /metrics (the microserve_engine_memo_*
// families) and the memo block of /healthz all say so.
func TestMemoCountersExposed(t *testing.T) {
	ts, eng, _ := newObservedServer(t)
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/v1/score", engine.Request{
			Lines: []string{"Acme Air", "Find cheap flights to Rome"},
		}, &engine.Response{}); code != http.StatusOK {
			t.Fatalf("score status %d", code)
		}
	}
	want := map[string]float64{"lookups": 3, "hits": 1, "stores": 1, "overwritten": 0}
	got := eng.Metrics().Read()
	for k, v := range want {
		if got["memo."+k] != v {
			t.Errorf("engine list: memo.%s = %v, want %v", k, got["memo."+k], v)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for k, v := range want {
		family := "microserve_engine_memo_" + k + "_total"
		if line := fmt.Sprintf("# TYPE %s counter\n%s %v\n", family, family, v); !strings.Contains(string(raw), line) {
			t.Errorf("/metrics has no counter %s %v", family, v)
		}
	}

	var body struct {
		Memo map[string]float64 `json:"memo"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if !reflect.DeepEqual(body.Memo, want) {
		t.Errorf("healthz memo block = %v, want %v", body.Memo, want)
	}
}

// TestMetricNamesTheBenchmarkScrapes pins the /metrics spellings the
// end-to-end benchmark reads by name. benchmark/ is its own module and
// tier-1 never compiles it, so a rename here would pass every test and
// leave the instrument reading zeros. The list is benchmark/layers.go
// lines 204-240 (histDelta reads a family's _sum and _count under one
// label set, counterDelta a bare series) and benchmark/host.go's
// microserve_build_info prefix; a series must be present before any
// traffic, because the benchmark's first scrape is its baseline.
func TestMetricNamesTheBenchmarkScrapes(t *testing.T) {
	ts, _, _ := newObservedServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Series keys as benchmark/scrape.go's parseProm spells them: the
	// line up to its last space.
	have := map[string]bool{}
	buildInfo := false
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			have[line[:i]] = true
			buildInfo = buildInfo || strings.HasPrefix(line, "microserve_build_info{")
		}
	}
	if !buildInfo {
		t.Error("no microserve_build_info{ series (benchmark/host.go)")
	}
	for _, h := range []struct{ family, labels string }{
		{"microserve_engine_stage_duration_seconds", `{stage="resolve"}`},
		{"microserve_engine_stage_duration_seconds", `{stage="batch"}`},
		{"microserve_engine_stage_duration_seconds", `{stage="candidates"}`},
		{"microserve_mbsp_frame_duration_seconds", ""},
		{"microserve_http_request_duration_seconds", `{route="score_batch"}`},
		{"microserve_http_request_duration_seconds", `{route="feedback"}`},
		{"microserve_stream_stage_duration_seconds", `{stage="fold_lag"}`},
		{"microserve_stream_stage_duration_seconds", `{stage="publish"}`},
		{"microserve_wal_op_duration_seconds", `{op="sync"}`},
	} {
		for _, suffix := range []string{"_sum", "_count"} {
			if key := h.family + suffix + h.labels; !have[key] {
				t.Errorf("/metrics has no series %s", key)
			}
		}
	}
	for _, key := range []string{
		"microserve_stream_publishes_total",
		"microserve_stream_accepted_total",
		"microserve_stream_dropped_total",
		"microserve_wal_syncs_total",
		"microserve_wal_flushes_total",
		"microserve_wal_appended_total",
		"microserve_wal_bytes",
	} {
		if !have[key] {
			t.Errorf("/metrics has no series %s", key)
		}
	}
}

// parkedAttention is the attention layer the learner stamps onto the
// micro models it publishes. Installing one compiles its attention
// table through Examine inside the publish, with the learner's lock
// held, so while a gate is armed the next Examine parks there until the
// test releases it: a publish held inside a fit, the way a long EM
// refit holds it (the stream package's own test of the learner's
// counters has its twin).
type parkedAttention struct{}

type parkGate struct{ entered, release chan struct{} }

var parkedGate atomic.Pointer[parkGate] // the gate the next Examine parks at; nil: none

func (parkedAttention) Examine(line, pos int) float64 {
	if g := parkedGate.Swap(nil); g != nil {
		close(g.entered)
		<-g.release
	}
	return 1
}

// TestProbesDoNotWaitForPublish: while the online learner is inside a
// model fit, /healthz and /metrics still answer — a liveness probe or a
// scrape with a short timeout must not read a slow publish as a dead
// server.
func TestProbesDoNotWaitForPublish(t *testing.T) {
	eng := engine.New()
	l, err := stream.New(eng, stream.Config{Models: []string{"sdbn", engine.NameMicro}, Shards: 2, Attention: parkedAttention{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	ts := httptest.NewServer(New(eng, nil, WithLearner(l)))
	t.Cleanup(ts.Close)
	sessions := testSessions(200)
	for i := range sessions {
		if err := l.Ingest(stream.Event{Session: &sessions[i]}); err != nil {
			t.Fatal(err)
		}
	}
	snip := stream.SnippetEvent{Lines: []string{"Acme Air", "Find cheap flights"}, Impressions: 40, Clicks: 7}
	if err := l.Ingest(stream.Event{Snippet: &snip}); err != nil {
		t.Fatal(err)
	}
	gate := &parkGate{entered: make(chan struct{}), release: make(chan struct{})}
	parkedGate.Store(gate)
	published := make(chan error, 1)
	go func() {
		_, err := l.Publish()
		published <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the publish never reached the parked fit")
	}
	probe := &http.Client{Timeout: 100 * time.Millisecond}
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := probe.Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s during a publish: %v", path, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s during a publish: status %d", path, resp.StatusCode)
		}
	}
	close(gate.release)
	if err := <-published; err != nil {
		t.Fatal(err)
	}
}
