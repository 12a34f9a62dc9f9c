package engine

// Engine-side observability: stage-timing histograms for the score
// pipeline and per-model-version predicted-CTR distributions with a
// publish-time drift baseline. Everything here is opt-in — an engine
// built without WithObserver runs the exact uninstrumented hot path —
// and allocation-free once attached: latency samples are atomic
// histogram adds, and the per-request score timing is sampled (1 in
// scoreSampleEvery) so two time.Now calls never dominate the ~1µs
// compiled kernel.

import (
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// scoreSampleEvery is the per-strand sampling stride of single-request
// score timing inside batches: power of two so the gate is one mask.
const scoreSampleEvery = 64

// Observer is the engine's instrument block: fixed histograms the
// caller allocates once (typically next to the engine, in microserve)
// and scrapes via /metrics. All samples are nanoseconds.
type Observer struct {
	// Batch is ScoreBatch / ScoreBatchInto end-to-end wall time.
	Batch obs.Histogram
	// Score is single-request scorer latency: every ScoreCTR call,
	// plus 1-in-scoreSampleEvery requests inside batches.
	Score obs.Histogram
	// Resolve is model-reference resolution latency, recorded on
	// strand cache misses and single-request resolves — the cost of
	// the table lookup plus artifact pinning.
	Resolve obs.Histogram
	// Candidates is ScoreCandidates end-to-end wall time, the
	// /v1/optimize engine stage.
	Candidates obs.Histogram
}

// WithObserver attaches the instrument block and turns on
// per-model-version CTR distribution tracking (versions installed
// before the engine had an observer stay untracked). o must outlive
// the engine.
func WithObserver(o *Observer) Option {
	return func(e *Engine) { e.obs = o }
}

// Observer returns the attached instrument block, nil when the engine
// is uninstrumented.
func (e *Engine) Observer() *Observer { return e.obs }

// resolvePinnedTimed wraps resolvePinned with resolve-stage timing
// when an observer is attached.
func (e *Engine) resolvePinnedTimed(ref string) (name string, version int, mv modelVersion, err error) {
	if e.obs == nil {
		return e.resolvePinned(ref)
	}
	t0 := time.Now()
	name, version, mv, err = e.resolvePinned(ref)
	e.obs.Resolve.RecordSince(t0)
	return
}

// DriftStatus is one model's live-vs-baseline CTR distribution
// comparison, the /healthz drift block entry. L1 is the normalised L1
// distance over histogram buckets, in [0, 2]: 0 means the serving
// version predicts CTRs shaped exactly like the distribution pinned
// when it was published, 2 means disjoint support. A freshly
// published online refit that scores traffic differently from its
// predecessor shows up here before business CTR moves.
type DriftStatus struct {
	Model           string  `json:"model"`
	Version         int     `json:"version"`
	BaselineVersion int     `json:"baseline_version"`
	LiveSamples     uint64  `json:"live_samples"`
	BaselineSamples uint64  `json:"baseline_samples"`
	L1              float64 `json:"l1"`
}

// Drift reports, for every model name whose serving version carries a
// publish-time baseline, how far the live predicted-CTR distribution
// has moved from it. Sorted by model name. Empty without an observer
// (CTR tracking is off) or before any version has a predecessor to
// baseline against.
func (e *Engine) Drift() []DriftStatus {
	t := e.tab.Load()
	out := make([]DriftStatus, 0, len(t.entries))
	for name, ent := range t.entries {
		mv, ok := ent.versions[ent.latest]
		if !ok || mv.ctr == nil || mv.base == nil {
			continue
		}
		live := mv.ctr.Snapshot()
		out = append(out, DriftStatus{
			Model:           name,
			Version:         ent.latest,
			BaselineVersion: mv.baseVer,
			LiveSamples:     live.Count,
			BaselineSamples: mv.base.Count,
			L1:              obs.NormL1(live, *mv.base),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Metrics declares the engine's signals: how many versions are
// installed, what the snippet memo did and — with an observer — the
// pipeline stage timings and, per serving version, the predicted-CTR
// distribution and its drift from the publish-time baseline.
func (e *Engine) Metrics() obs.List {
	l := obs.List{{Name: "microserve_models", Help: "Installed model versions.", Kind: obs.KindGauge,
		Key: "models", Value: func() float64 { return float64(e.ModelCount()) }}}
	l = append(l, e.memo.metrics()...)
	o := e.obs
	if o == nil {
		return l
	}
	stage := func(name string, h *obs.Histogram) obs.Metric {
		return obs.Metric{Name: "microserve_engine_stage_duration_seconds",
			Help: "Engine pipeline stage wall time (score sampled 1-in-64 inside batches).",
			Kind: obs.KindHistogram, Labels: `stage="` + name + `"`, Scale: 1e-9, Hist: h}
	}
	return append(l,
		stage("batch", &o.Batch), stage("score", &o.Score), stage("resolve", &o.Resolve), stage("candidates", &o.Candidates),
		obs.Metric{Name: "microserve_model_predicted_ctr", Help: "Live predicted-CTR distribution of each serving version.",
			Kind: obs.KindHistogram, Scale: obs.CTRScale, Series: e.ctrSeries},
		obs.Metric{Name: "microserve_model_ctr_drift_l1",
			Help: "Normalised L1 distance between the live predicted-CTR distribution and the publish-time baseline, in [0, 2].",
			Kind: obs.KindGauge, Series: e.driftSeries})
}

// ctrSeries is the live predicted-CTR distribution of every model
// name's serving version (micro-CTR units), in name order.
func (e *Engine) ctrSeries() []obs.Series {
	t := e.tab.Load()
	out := make([]obs.Series, 0, len(t.entries))
	for name, ent := range t.entries {
		mv, ok := ent.versions[ent.latest]
		if !ok || mv.ctr == nil {
			continue
		}
		out = append(out, obs.Series{Labels: "model=" + strconv.Quote(name) + `,version="` + strconv.Itoa(ent.latest) + `"`,
			Snap: mv.ctr.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
	return out
}

// driftSeries is Drift as one series per model name.
func (e *Engine) driftSeries() []obs.Series {
	drift := e.Drift()
	out := make([]obs.Series, len(drift))
	for i, d := range drift {
		out[i] = obs.Series{Labels: "model=" + strconv.Quote(d.Model) + `,version="` + strconv.Itoa(d.Version) +
			`",baseline="` + strconv.Itoa(d.BaselineVersion) + `"`, Value: d.L1}
	}
	return out
}
