package server

// HTTP-surface observability: request identity, per-route latency
// histograms and slow-request traces. ServeHTTP is the single
// middleware seam — it stamps X-Request-ID (client-supplied or
// minted), times every routed request into a per-route histogram, and
// offers requests past the trace ring's threshold as traces carrying
// whatever shape and stage timings the handler annotated via the
// request context. The annotations are best-effort by design: a
// handler that never touches its traceInfo still yields a useful
// trace (route, total latency, request ID).

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server/binproto"
)

// Route classes for latency accounting. Admin collapses the
// per-model load/rollback/snapshot endpoints into one class: they
// share a traffic profile (rare, operator-driven) and splitting them
// would triple the exposition for no dashboard value.
const (
	routeHealthz = iota
	routeMetrics
	routeModels
	routeScore
	routeScoreBatch
	routeOptimize
	routeFeedback
	routeAdmin
	routeTraces
	routeOther
	numRoutes
)

// routeNames are the route label values on
// microserve_http_request_duration_seconds.
var routeNames = [numRoutes]string{
	"healthz", "metrics", "models", "score", "score_batch",
	"optimize", "feedback", "admin", "traces", "other",
}

// classifyRoute maps a request path to its latency class. Exact
// matches for the fixed routes, one prefix test for the per-model
// admin family.
func classifyRoute(path string) int {
	switch path {
	case "/healthz":
		return routeHealthz
	case "/metrics":
		return routeMetrics
	case "/v1/models":
		return routeModels
	case "/v1/score":
		return routeScore
	case "/v1/score/batch":
		return routeScoreBatch
	case "/v1/optimize":
		return routeOptimize
	case "/v1/feedback":
		return routeFeedback
	case "/debug/traces":
		return routeTraces
	}
	if strings.HasPrefix(path, "/v1/models/") {
		return routeAdmin
	}
	return routeOther
}

// WithTracing attaches a slow-request trace ring: requests slower
// than the ring's threshold are captured with their per-stage
// timings and served at GET /debug/traces. The ring may be shared
// with a binproto.Server so both surfaces land in one timeline.
func WithTracing(ring *obs.TraceRing) Option {
	return func(s *Server) { s.ring = ring }
}

// WithBinary attaches a binary-protocol server's list (its counters and
// frame latency histogram) to this server's /metrics and /healthz, so
// one scrape covers both protocols.
func WithBinary(b *binproto.Server) Option {
	return func(s *Server) { s.bin = b }
}

// traceKey carries the per-request *traceInfo through the context.
type traceKey struct{}

// traceInfo is the handler-side annotation slot for one traced
// request: the model and item count it resolved to, plus up to
// MaxStages named stage timings. All methods tolerate a nil receiver
// so handlers annotate unconditionally and pay nothing when tracing
// is off. The model is copied in (into a buffer the pooled slot keeps):
// a trace is offered to the ring after the handler has returned, and
// on the score routes the handler's strings are views of a body buffer
// that is back in its pool by then.
type traceInfo struct {
	model  []byte
	items  int
	n      int
	stages [obs.MaxStages]obs.Stage
}

var traceInfoPool = sync.Pool{New: func() any { return new(traceInfo) }}

// traceFrom extracts the annotation slot, nil when tracing is off.
func traceFrom(ctx context.Context) *traceInfo {
	ti, _ := ctx.Value(traceKey{}).(*traceInfo)
	return ti
}

// stage appends one named stage timing measured from t0 to now.
func (ti *traceInfo) stage(name string, t0 time.Time) {
	if ti == nil || ti.n >= obs.MaxStages {
		return
	}
	ti.stages[ti.n] = obs.Stage{Name: name, MS: float64(time.Since(t0)) / float64(time.Millisecond)}
	ti.n++
}

// shape records what the request resolved to.
func (ti *traceInfo) shape(model string, items int) {
	if ti == nil {
		return
	}
	ti.model, ti.items = append(ti.model[:0], model...), items
}

// ServeHTTP implements http.Handler: the observability middleware
// around the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", rid)

	rt := classifyRoute(r.URL.Path)
	var ti *traceInfo
	if s.ring != nil {
		ti = traceInfoPool.Get().(*traceInfo)
		*ti = traceInfo{model: ti.model[:0]}
		r = r.WithContext(context.WithValue(r.Context(), traceKey{}, ti))
	}
	t0 := time.Now()
	s.mux.ServeHTTP(w, r)
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	s.httpH[rt].Record(uint64(d))
	if ti != nil {
		if s.ring.Slow(d) {
			s.ring.Add(obs.Trace{
				ID:      rid,
				Proto:   "http",
				Kind:    routeNames[rt],
				Model:   string(ti.model),
				Items:   ti.items,
				UnixMS:  time.Now().UnixMilli(),
				TotalMS: float64(d) / float64(time.Millisecond),
				Stages:  append([]obs.Stage(nil), ti.stages[:ti.n]...),
			})
		}
		traceInfoPool.Put(ti)
	}
}

// tracesBody is the GET /debug/traces wire shape.
type tracesBody struct {
	Enabled     bool        `json:"enabled"`
	ThresholdMS float64     `json:"threshold_ms"`
	Added       uint64      `json:"added"`
	Traces      []obs.Trace `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	body := tracesBody{Traces: []obs.Trace{}}
	if s.ring != nil {
		body.Enabled = true
		body.ThresholdMS = float64(s.ring.Threshold()) / float64(time.Millisecond)
		body.Added = s.ring.Added()
		body.Traces = s.ring.Snapshot()
	}
	s.writeJSON(w, http.StatusOK, body)
}
