package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// GET /metrics — Prometheus text exposition (format 0.0.4) of the same
// counters /healthz reports as JSON, hand-rolled like the rest of the
// metrics block: no client library, just HELP/TYPE/value triplets, so
// a scraper can watch serving, learning and durability without any new
// dependency. Counters are monotonic since process start; gauges are
// instantaneous.

// promWriter accumulates one exposition document.
type promWriter struct{ b bytes.Buffer }

func (p *promWriter) counter(name, help string, v uint64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var p promWriter

	bi := obs.Build()
	fmt.Fprintf(&p.b, "# HELP microserve_build_info Build identity of the serving binary (value fixed at 1).\n"+
		"# TYPE microserve_build_info gauge\nmicroserve_build_info{go_version=%q,revision=%q,modified=%q} 1\n",
		bi.GoVersion, bi.Revision, strconv.FormatBool(bi.Modified))
	p.gauge("microserve_uptime_seconds", "Seconds since process start.", obs.Uptime().Seconds())

	m := s.met.snapshot()
	p.counter("microserve_http_requests_total", "HTTP requests routed.", m.Requests)
	p.counter("microserve_http_errors_total", "Non-2xx responses written.", m.Errors)
	p.counter("microserve_scores_total", "POST /v1/score calls.", m.Scores)
	p.counter("microserve_score_batches_total", "POST /v1/score/batch calls.", m.Batches)
	p.counter("microserve_score_batch_requests_total", "Requests inside score batches.", m.BatchRequests)
	p.counter("microserve_optimizes_total", "POST /v1/optimize calls.", m.Optimizes)
	p.counter("microserve_optimize_candidates_total", "Candidates scored inside optimize calls.", m.OptimizeCandidates)
	p.counter("microserve_feedbacks_total", "POST /v1/feedback calls.", m.Feedbacks)
	p.counter("microserve_feedback_events_total", "Events inside feedback calls (pre-ingest).", m.FeedbackEvents)
	p.counter("microserve_model_loads_total", "Snapshot hot-swaps.", m.Loads)
	p.counter("microserve_model_rollbacks_total", "Version rollbacks.", m.Rollbacks)
	p.counter("microserve_model_snapshots_total", "Snapshot exports.", m.Snapshots)
	p.gauge("microserve_models", "Installed model versions.", float64(s.eng.ModelCount()))

	memo := s.eng.MemoStats()
	p.counter("microserve_engine_memo_lookups_total", "Micro requests that looked in the snippet memo.", memo.Lookups)
	p.counter("microserve_engine_memo_hits_total", "Micro requests answered from the snippet memo, the kernel not run.", memo.Hits)
	p.counter("microserve_engine_memo_stores_total", "Records written to the snippet memo (a snippet's second miss).", memo.Stores)

	if s.limiter != nil {
		rl := s.limiter.snapshot()
		p.counter("microserve_feedback_ratelimited_total", "Feedback requests rejected by the per-client limiter.", rl.Limited)
		p.gauge("microserve_ratelimit_clients", "Clients currently tracked by the limiter.", float64(rl.Clients))
	}

	if s.learner != nil {
		c := s.learner.Counters()
		p.counter("microserve_stream_accepted_total", "Feedback events queued into the sink.", c.Accepted)
		p.counter("microserve_stream_dropped_total", "Feedback events dropped on sink saturation.", c.Dropped)
		p.counter("microserve_stream_invalid_total", "Feedback events rejected as malformed.", c.Invalid)
		p.counter("microserve_stream_folded_sessions_total", "Sessions folded into the statistics.", c.FoldedSessions)
		p.counter("microserve_stream_folded_snippets_total", "Snippet events folded into the term counts.", c.FoldedSnippets)
		p.counter("microserve_stream_replayed_total", "Events recovered from the WAL at boot.", c.Replayed)
		p.counter("microserve_stream_publishes_total", "Publisher ticks that installed versions.", c.Publishes)
		p.counter("microserve_stream_publish_skips_total", "Publisher ticks gated by MinEvents.", c.PublishSkips)
		p.counter("microserve_stream_publish_errors_total", "Publisher ticks with fit/install failures.", c.PublishErrors)
		p.gauge("microserve_stream_last_publish_seconds", "Wall time of the last publish.", c.LastPublishMS/1000)
		p.gauge("microserve_stream_window_sessions", "EM mini-batch window fill.", float64(c.WindowSessions))
		p.gauge("microserve_stream_pairs", "Distinct (query, doc) pairs accumulated.", float64(c.Pairs))
		p.gauge("microserve_stream_micro_terms", "Micro vocabulary size.", float64(c.MicroTerms))
		p.gauge("microserve_stream_weight", "Decayed session mass.", c.Weight)
	}

	if s.wal != nil {
		c := s.wal.Counters()
		p.counter("microserve_wal_appended_total", "Records appended to the feedback WAL.", c.Appended)
		p.counter("microserve_wal_append_errors_total", "WAL appends that failed.", c.AppendErrors)
		p.counter("microserve_wal_flushes_total", "Append-buffer flushes to the OS.", c.Flushes)
		p.counter("microserve_wal_syncs_total", "fsync calls.", c.Syncs)
		p.counter("microserve_wal_replayed_total", "Records replayed at boot.", c.Replayed)
		p.counter("microserve_wal_corrupt_skipped_total", "Corrupt records skipped during replay.", c.CorruptSkipped)
		p.counter("microserve_wal_truncated_bytes_total", "Torn-tail bytes truncated during recovery.", c.TruncatedBytes)
		p.counter("microserve_wal_pruned_segments_total", "Sealed segments pruned.", c.PrunedSegments)
		p.gauge("microserve_wal_segments", "Live segment files.", float64(c.Segments))
		p.gauge("microserve_wal_bytes", "Total log bytes (including buffered).", float64(c.Bytes))
		p.gauge("microserve_wal_durable_seq", "Highest fsynced sequence number.", float64(c.DurableSeq))
		p.gauge("microserve_wal_next_seq", "Next sequence number to be appended.", float64(c.NextSeq))
	}

	s.writeHistograms(&p)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(p.b.Bytes())
}

// writeHistograms renders the latency and distribution histogram
// families: HTTP per-route, binary-protocol frames, engine pipeline
// stages, per-model predicted-CTR distributions with their drift
// gauges, online-loop stages and WAL operations. Each subsystem
// appears only when attached, mirroring the counter blocks above.
func (s *Server) writeHistograms(p *promWriter) {
	httpSeries := make([]obs.Series, 0, numRoutes)
	for i := range s.httpH {
		httpSeries = append(httpSeries, obs.Series{
			Labels: `route="` + routeNames[i] + `"`,
			Snap:   s.httpH[i].Snapshot(),
		})
	}
	obs.WriteProm(&p.b, "microserve_http_request_duration_seconds",
		"HTTP request latency by route class.", 1e-9, httpSeries...)

	if s.bin != nil {
		c := s.bin.Counters()
		p.counter("microserve_mbsp_frames_total", "Binary-protocol frames served.", c.Frames)
		p.counter("microserve_mbsp_requests_total", "Requests scored over the binary protocol.", c.Requests)
		p.counter("microserve_mbsp_errors_total", "Binary-protocol connection errors.", c.Errors)
		obs.WriteProm(&p.b, "microserve_mbsp_frame_duration_seconds",
			"Binary-protocol frame service time (read done to response written).", 1e-9,
			obs.Series{Snap: s.bin.FrameLatency()})
	}

	if o := s.eng.Observer(); o != nil {
		obs.WriteProm(&p.b, "microserve_engine_stage_duration_seconds",
			"Engine pipeline stage wall time (score sampled 1-in-64 inside batches).", 1e-9,
			obs.Series{Labels: `stage="batch"`, Snap: o.Batch.Snapshot()},
			obs.Series{Labels: `stage="score"`, Snap: o.Score.Snapshot()},
			obs.Series{Labels: `stage="resolve"`, Snap: o.Resolve.Snapshot()},
			obs.Series{Labels: `stage="candidates"`, Snap: o.Candidates.Snapshot()})

		if dists := s.eng.CTRDistributions(); len(dists) > 0 {
			cs := make([]obs.Series, 0, len(dists))
			for _, d := range dists {
				cs = append(cs, obs.Series{
					Labels: `model="` + d.Model + `",version="` + strconv.Itoa(d.Version) + `"`,
					Snap:   d.Snap,
				})
			}
			obs.WriteProm(&p.b, "microserve_model_predicted_ctr",
				"Live predicted-CTR distribution of each serving version.", obs.CTRScale, cs...)
		}
		if drift := s.eng.Drift(); len(drift) > 0 {
			fmt.Fprintf(&p.b, "# HELP microserve_model_ctr_drift_l1 Normalised L1 distance between the live predicted-CTR distribution and the publish-time baseline, in [0, 2].\n"+
				"# TYPE microserve_model_ctr_drift_l1 gauge\n")
			for _, d := range drift {
				fmt.Fprintf(&p.b, "microserve_model_ctr_drift_l1{model=%q,version=\"%d\",baseline=\"%d\"} %s\n",
					d.Model, d.Version, d.BaselineVersion, strconv.FormatFloat(d.L1, 'g', -1, 64))
			}
		}
	}

	if s.learner != nil {
		h := s.learner.Hists()
		obs.WriteProm(&p.b, "microserve_stream_stage_duration_seconds",
			"Online-loop stage durations: sink residence (offer to fold), fold, publish.", 1e-9,
			obs.Series{Labels: `stage="fold_lag"`, Snap: h.FoldLag},
			obs.Series{Labels: `stage="fold"`, Snap: h.Fold},
			obs.Series{Labels: `stage="publish"`, Snap: h.Publish})
	}

	if s.wal != nil {
		h := s.wal.Hists()
		obs.WriteProm(&p.b, "microserve_wal_op_duration_seconds",
			"WAL operation durations (append sampled 1-in-64; syscalls exact).", 1e-9,
			obs.Series{Labels: `op="append"`, Snap: h.Append},
			obs.Series{Labels: `op="flush"`, Snap: h.Flush},
			obs.Series{Labels: `op="sync"`, Snap: h.Sync},
			obs.Series{Labels: `op="rotate"`, Snap: h.Rotate})
	}
}
