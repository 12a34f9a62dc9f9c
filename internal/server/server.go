// Package server is the HTTP/JSON serving surface over the scoring
// engine: the serve-online half of the train-offline / serve-online
// split — and, with an attached online learner, the ingest surface
// that closes the loop. cmd/microserve wires it to a listener; the
// handlers are exported through New so tests drive them with
// net/http/httptest.
//
// Routes:
//
//	GET  /healthz                    — liveness, build, and every attached counter and gauge as JSON
//	GET  /metrics                    — the same signals, with histograms, as Prometheus text exposition
//	GET  /v1/models                  — metadata of every installed version
//	POST /v1/score                   — score one engine.Request
//	POST /v1/score/batch             — score a request slice concurrently
//	POST /v1/optimize                — rank candidate snippets in one amortised pass
//	POST /v1/feedback                — ingest click feedback (single + batch)
//	POST /v1/models/{name}/load      — hot-swap a snapshot artifact in
//	POST /v1/models/{name}/rollback  — move the latest pointer back
//	POST /v1/models/{name}/snapshot  — export an installed version to disk
//	GET  /debug/traces               — recent slow-request traces (when tracing is on)
//
// Every response carries an X-Request-ID header — the client's, when
// supplied, else a freshly minted process-unique ID — and every
// request is timed into a per-route latency histogram exposed on
// /metrics (see obs.go for the middleware).
//
// A signal is declared in one place: an obs.Metric in the list of the
// subsystem that bumps it (metrics.go for the server's own, and the
// Metrics method of the engine, learner, WAL and binary server). New
// concatenates the lists of what is attached, and /metrics and /healthz
// are both rendered from that one list (metrics.go), so neither surface
// can carry a value the other lacks.
//
// Scoring endpoints speak engine.Request / engine.Response verbatim
// (the engine types carry the wire tags); per-request failures travel
// in Response.Error, never silently as "{}". The two score routes and
// the feedback route do not run encoding/json: one scanner (jsonscan.go)
// under a field table and a walk per route (scorejson.go, feedback.go)
// reads their bodies into the evidence arena the binary protocol decodes
// into (binproto.Batch — one request-batch builder, two wire syntaxes),
// and their replies are appended with strconv, out of one pooled codec
// per request. Strings scanned on those routes are views of the pooled
// buffers: a scored request dies when the handler returns, so whatever
// outlives it clones first; feedback events outlive it by design, so
// the route copies them out, once per body, before the learner sees
// them. encoding/json stays the contract as the oracle of the package's
// tests. Every JSON body is exactly one value: data after it is a 400 on
// every route, and on the scanned routes so is a repeated key. Feedback
// is accepted into the learner's bounded sink: the response reports
// accepted / dropped / invalid counts, and saturation surfaces as 429 so
// load generators can back off.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server/binproto"
	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/wal"
)

// maxBodyBytes bounds request bodies; a batch of tens of thousands of
// snippet requests fits comfortably, an accidental upload does not.
const maxBodyBytes = 32 << 20

// maxBatchItems bounds the fan-in of one batch call (score requests in
// /v1/score/batch, events in /v1/feedback). Larger batches get 413 and
// should be split client-side; the bound keeps one request from
// monopolising the worker pool or the ingest buffers.
const maxBatchItems = 10000

// Server serves one Engine (and optionally one online Learner) over
// HTTP.
type Server struct {
	eng        *engine.Engine
	learner    *stream.Learner
	wal        *wal.WAL
	limiter    *rateLimiter
	limiterTTL *time.Duration // nil = limiter default
	mux        *http.ServeMux
	log        *log.Logger
	met        metrics
	// signals is every attached subsystem's list, in /healthz block
	// order; /metrics and /healthz are both rendered from it.
	signals obs.List

	// httpH distributes request latency per route class (nanosecond
	// samples, exposed in seconds); ring and bin are the optional
	// tracing and binary-protocol attachments (see obs.go).
	httpH [numRoutes]obs.Histogram
	ring  *obs.TraceRing
	bin   *binproto.Server
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithLearner attaches an online learning loop: POST /v1/feedback
// ingests into it and its list joins /healthz and /metrics. Without it
// the feedback endpoint answers 503.
func WithLearner(l *stream.Learner) Option {
	return func(s *Server) { s.learner = l }
}

// WithWAL attaches the feedback log's list to /healthz and /metrics.
// The server only observes the WAL — appends happen inside the
// learner's ingest path, and the caller owns Close.
func WithWAL(w *wal.WAL) Option {
	return func(s *Server) { s.wal = w }
}

// WithFeedbackRateLimit throttles POST /v1/feedback per client to
// eventsPerSec sustained with the given burst. Over-budget requests
// get 429 with a Retry-After hint before any event reaches the sink.
func WithFeedbackRateLimit(eventsPerSec float64, burst int) Option {
	return func(s *Server) {
		if eventsPerSec > 0 {
			s.limiter = newRateLimiter(eventsPerSec, burst)
		}
	}
}

// WithFeedbackClientTTL sets how long an idle client's rate-limit
// bucket is remembered before the sweep evicts it (default 10m; <= 0
// disables idle eviction, leaving only full-bucket reclamation). Order
// with WithFeedbackRateLimit does not matter.
func WithFeedbackClientTTL(ttl time.Duration) Option {
	return func(s *Server) { s.limiterTTL = &ttl }
}

// New returns a Server routing to eng. logger may be nil (discards).
func New(eng *engine.Engine, logger *log.Logger, opts ...Option) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{eng: eng, mux: http.NewServeMux(), log: logger}
	for _, opt := range opts {
		opt(s)
	}
	if s.limiter != nil && s.limiterTTL != nil {
		s.limiter.ttl = *s.limiterTTL
	}
	s.signals = append(s.servingMetrics(), eng.Metrics()...)
	if s.learner != nil {
		s.signals = append(s.signals, s.learner.Metrics()...)
	}
	if s.wal != nil {
		s.signals = append(s.signals, s.wal.Metrics()...)
	}
	if s.limiter != nil {
		s.signals = append(s.signals, s.limiter.metrics()...)
	}
	if s.bin != nil {
		s.signals = append(s.signals, s.bin.Metrics()...)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/score", s.handleScore)
	s.mux.HandleFunc("POST /v1/score/batch", s.handleScoreBatch)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("POST /v1/models/{name}/load", s.handleLoad)
	s.mux.HandleFunc("POST /v1/models/{name}/rollback", s.handleRollback)
	s.mux.HandleFunc("POST /v1/models/{name}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/models/{name}/snapshot", s.handleSnapshotGet)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return s
}

// pooledEncoder is a reusable JSON encode buffer with its encoder
// permanently bound to it, so the per-response path allocates neither.
type pooledEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	pe := &pooledEncoder{}
	pe.enc = json.NewEncoder(&pe.buf)
	pe.enc.SetEscapeHTML(false)
	return pe
}}

// maxPooledEncodeBuf keeps one giant batch response from pinning a
// multi-megabyte buffer in the pool forever.
const maxPooledEncodeBuf = 1 << 20

// writeJSON sends one JSON document with the given status. Encoding
// lands in a pooled buffer first, so serving steady state allocates
// no encoder or growth churn per response — and an encode failure can
// still become a clean 500, because nothing has been written to the
// wire yet.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		s.met.errors.Add(1)
	}
	pe := encPool.Get().(*pooledEncoder)
	pe.buf.Reset()
	if err := pe.enc.Encode(v); err != nil {
		if pe.buf.Cap() <= maxPooledEncodeBuf {
			encPool.Put(pe)
		}
		s.met.errors.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"response encoding failed"}`+"\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(pe.buf.Bytes())
	if pe.buf.Cap() <= maxPooledEncodeBuf {
		encPool.Put(pe)
	}
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody unmarshals a bounded JSON request body into v. The body
// is one JSON value: only whitespace may follow it.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		s.writeError(w, http.StatusBadRequest, "bad request body: unexpected data after the JSON value")
		return false
	}
	return true
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Models []engine.ModelInfo `json:"models"`
	}{s.eng.Models()})
}

// handleScore and handleScoreBatch are the hot routes: their bodies
// go through the schema-specific codec of scorejson.go — read once into
// a pooled buffer, scanned into the shared evidence arena, scored, and
// the reply appended — not through decodeBody/writeJSON.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.met.scores.Add(1)
	ti := traceFrom(r.Context())
	t0 := time.Now()
	c := getCodec()
	defer putCodec(c)
	if !s.readBody(w, r, c) {
		return
	}
	s.reply(w, c, s.scoreCycle(r.Context(), c, ti, t0))
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batches.Add(1)
	ti := traceFrom(r.Context())
	t0 := time.Now()
	c := getCodec()
	defer putCodec(c)
	if !s.readBody(w, r, c) {
		return
	}
	s.reply(w, c, s.scoreBatchCycle(r.Context(), c, ti, t0))
}

// loadRequest is the admin body of POST /v1/models/{name}/load: the
// snapshot artifact to swap in, by file path on the serving host.
type loadRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req loadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		s.writeError(w, http.StatusBadRequest, "load needs a snapshot path")
		return
	}
	// The path comes from the wire, so the file is not trusted: a v2
	// artifact is mapped, not copied, but its CRCs and probe tables are
	// checked before the swap, and a refused load leaves the previous
	// version serving.
	info, err := s.eng.LoadSnapshotFileVerified(name, req.Path)
	if err != nil {
		status := http.StatusUnprocessableEntity
		var pathErr *fs.PathError
		if errors.As(err, &pathErr) {
			status = http.StatusBadRequest // the path could not be opened: the request is at fault, not the artifact
		}
		s.writeError(w, status, "load snapshot: %v", err)
		return
	}
	s.met.loads.Add(1)
	s.log.Printf("hot-swapped %s from %s (%d params)", info.Ref(), req.Path, info.Params)
	s.writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.eng.Rollback(name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "rollback: %v", err)
		return
	}
	s.met.rollbacks.Add(1)
	s.log.Printf("rolled %s back to %s", name, info.Ref())
	s.writeJSON(w, http.StatusOK, info)
}

// snapshotRequest / snapshotResponse are the wire shapes of
// POST /v1/models/{name}/snapshot: export an installed version (the
// path accepts "name" or "name@version") as an artifact on the serving
// host — how an online-learned model is persisted back to disk.
type snapshotRequest struct {
	Path string `json:"path"`
}

type snapshotResponse struct {
	Model string `json:"model"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req snapshotRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		s.writeError(w, http.StatusBadRequest, "snapshot needs a destination path")
		return
	}
	var n int64
	err := snapshot.WriteFileAtomic(req.Path, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := s.eng.SaveSnapshot(name, cw)
		n = cw.n
		return err
	})
	switch {
	case err == nil:
	case errors.Is(err, engine.ErrNoModel):
		s.writeError(w, http.StatusNotFound, "snapshot: %v", err)
		return
	default:
		s.writeError(w, http.StatusUnprocessableEntity, "snapshot: %v", err)
		return
	}
	s.met.snapshots.Add(1)
	s.log.Printf("exported %s to %s (%d bytes)", name, req.Path, n)
	s.writeJSON(w, http.StatusOK, snapshotResponse{Model: name, Path: req.Path, Bytes: n})
}

// handleSnapshotGet streams the referenced model's artifact over the
// wire (GET /v1/models/{name}/snapshot, path accepts "name" or
// "name@version"). The response carries a strong ETag — the resolved
// name@version, which uniquely identifies immutable installed
// parameters — plus Content-Length, and honours If-None-Match with
// 304: a replica polling for changes pays two table lookups and zero
// serialisation until the version actually moves.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.eng.Stat(name)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "snapshot: %v", err)
		return
	}
	etag := `"` + info.Ref() + `"`
	w.Header().Set("ETag", etag)
	if matchesETag(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	// Serialise the exact version the probe saw: a hot swap between
	// Stat and export must not ship bytes that contradict the ETag.
	var buf bytes.Buffer
	if err := s.eng.SaveSnapshot(info.Ref(), &buf); err != nil {
		w.Header().Del("ETag")
		status := http.StatusUnprocessableEntity
		if errors.Is(err, engine.ErrNoModel) {
			status = http.StatusNotFound
		}
		s.writeError(w, status, "snapshot: %v", err)
		return
	}
	s.met.snapshots.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// matchesETag implements the If-None-Match grammar the export needs:
// "*", or a comma-separated list of entity tags, compared weakly (a
// W/ prefix on either side is ignored — RFC 9110's comparison for
// If-None-Match).
func matchesETag(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == etag {
			return true
		}
	}
	return false
}

// countingWriter reports how many artifact bytes an export produced.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
