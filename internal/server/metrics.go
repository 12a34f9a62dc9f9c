package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// metrics is the server's serving counter block: lock-free atomic
// counters bumped on the hot paths. Counting is deliberately coarse —
// batch fan-in, feedback volume, admin actions, errors — the numbers a
// load generator or a dashboard needs to tell "serving and learning"
// from "quietly broken". Requests are not counted here: the per-route
// latency histograms already count every completed one.
type metrics struct {
	scores             atomic.Uint64 // POST /v1/score calls
	batches            atomic.Uint64 // POST /v1/score/batch calls
	batchRequests      atomic.Uint64 // requests inside those batches
	optimizes          atomic.Uint64 // POST /v1/optimize calls
	optimizeCandidates atomic.Uint64 // candidates scored inside those calls
	feedbacks          atomic.Uint64 // POST /v1/feedback calls
	feedbackEvents     atomic.Uint64 // events inside those calls (pre-ingest)
	loads              atomic.Uint64 // snapshot hot-swaps
	rollbacks          atomic.Uint64
	snapshots          atomic.Uint64 // snapshot exports
	errors             atomic.Uint64 // 4xx/5xx responses written by a route handler
}

// servingMetrics declares the server's own signals: process identity
// and uptime, the serving counters (the serving block of /healthz) and
// the per-route request latency histograms.
func (s *Server) servingMetrics() obs.List {
	counter := func(name, key, help string, a *atomic.Uint64) obs.Metric {
		return obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Block: "serving", Key: key,
			Value: func() float64 { return float64(a.Load()) }}
	}
	l := obs.List{
		{Name: "microserve_build_info", Help: "Build identity of the serving binary (value fixed at 1).",
			Kind: obs.KindGauge, Series: func() []obs.Series {
				bi := obs.Build()
				return []obs.Series{{Value: 1, Labels: "go_version=" + strconv.Quote(bi.GoVersion) +
					",revision=" + strconv.Quote(bi.Revision) + ",modified=" + strconv.Quote(strconv.FormatBool(bi.Modified))}}
			}},
		{Name: "microserve_uptime_seconds", Help: "Seconds since process start.", Kind: obs.KindGauge,
			Key: "uptime_seconds", Value: func() float64 { return obs.Uptime().Seconds() }},
		{Name: "microserve_http_requests_total", Help: "HTTP requests completed (the sum of the per-route duration counts).",
			Kind: obs.KindCounter, Block: "serving", Key: "requests", Value: func() float64 {
				var n uint64
				for i := range s.httpH {
					n += s.httpH[i].Count()
				}
				return float64(n)
			}},
		counter("microserve_scores_total", "scores", "POST /v1/score calls.", &s.met.scores),
		counter("microserve_score_batches_total", "batches", "POST /v1/score/batch calls.", &s.met.batches),
		counter("microserve_score_batch_requests_total", "batch_requests", "Requests inside score batches.", &s.met.batchRequests),
		counter("microserve_optimizes_total", "optimizes", "POST /v1/optimize calls.", &s.met.optimizes),
		counter("microserve_optimize_candidates_total", "optimize_candidates", "Candidates scored inside optimize calls.", &s.met.optimizeCandidates),
		counter("microserve_feedbacks_total", "feedbacks", "POST /v1/feedback calls.", &s.met.feedbacks),
		counter("microserve_feedback_events_total", "feedback_events", "Events inside feedback calls (pre-ingest).", &s.met.feedbackEvents),
		counter("microserve_model_loads_total", "loads", "Snapshot hot-swaps.", &s.met.loads),
		counter("microserve_model_rollbacks_total", "rollbacks", "Version rollbacks.", &s.met.rollbacks),
		counter("microserve_model_snapshots_total", "snapshots", "Snapshot exports.", &s.met.snapshots),
		counter("microserve_http_errors_total", "errors",
			"4xx and 5xx responses written by a route handler (not the mux's 404/405, not 304).", &s.met.errors),
	}
	for i := range s.httpH {
		l = append(l, obs.Metric{Name: "microserve_http_request_duration_seconds", Help: "HTTP request latency by route class.",
			Kind: obs.KindHistogram, Labels: `route="` + routeNames[i] + `"`, Scale: 1e-9, Hist: &s.httpH[i]})
	}
	return l
}

// GET /metrics — Prometheus text exposition (format 0.0.4) of every
// list attached to the server, hand-rolled like the rest of the
// observability layer: no client library, no new dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.signals.AppendProm(make([]byte, 0, 64<<10)))
}

// GET /healthz — liveness and build identity, then every counter and
// gauge of the attached lists (uptime and model count at the top level,
// the rest in one object per subsystem: serving, memo, stream, wal,
// ratelimit, mbsp), then — when the engine is instrumented and a
// serving version has a publish-time baseline — the drift block.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := append(make([]byte, 0, 4<<10), `{"status":"ok","build":`...)
	build, _ := json.Marshal(obs.Build()) // strings and a bool: cannot fail
	b = s.signals.AppendJSON(append(b, build...))
	if drift := s.eng.Drift(); len(drift) > 0 {
		d, _ := json.Marshal(drift) // finite numbers and strings: cannot fail
		b = append(append(b, `,"drift":`...), d...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, "}\n"...))
}
