// Package microbrowsing is the public facade of this reproduction of
// "Micro-Browsing Models for Search Snippets" (Islam, Srikant, Basu;
// ICDE 2019). Its primary entry point is the unified scoring engine:
// a registry-backed, context-aware batch CTR API over both browsing
// levels of the paper.
//
//	eng := microbrowsing.NewEngine(microbrowsing.WithWorkers(8))
//	train, err := microbrowsing.CompileSessions(sessions)
//	eng.Fit("pbm", train, 0)                // macro model by registry name; 0 keeps the EM default
//	eng.UseMicro(microModel)                // the micro-browsing model
//	resps := eng.ScoreBatch(ctx, requests)  // concurrent, per-request errors
//
// A ScoreRequest selects its model by reference — "pbm" for the
// latest installed version, "pbm@3" to pin one (ClickModelNames lists
// the registry; "micro" is the micro-browsing model) — and carries
// either a Session (macro evidence: one ranked impression) or snippet
// Lines (micro evidence). Every scorer answers the same question — the
// probability of a click — so click models and the micro model are
// interchangeable estimators behind a config string.
//
// The engine is built for the train-offline / serve-online split:
// every install (Engine.Install, and Fit, UseMicro and LoadSnapshot,
// which end in it) publishes an immutable new version into a
// lock-free table, fitted models Save to self-describing binary
// artifacts and load back (LoadClickModel, Engine.LoadSnapshot),
// Rollback un-ships a bad artifact, and cmd/microserve is the HTTP
// front over exactly this surface. See internal/engine for the full
// contract and the README "Serving" section for the fit → snapshot →
// serve → hot-swap walkthrough.
//
// Around the engine, the facade exports what the examples name of the
// building blocks:
//
//   - the micro-browsing model itself (per-term relevance × per-position
//     attention, Eq. 3–8 of the paper) from internal/core;
//   - snippet/creative types from internal/snippet;
//   - the classical macro click models (PBM, cascade, DCM, UBM, BBM,
//     CCM, DBN, SDBN, GCM) plus the post-click session utility model
//     (SUM) from internal/clickmodel, constructible by name through
//     the registry;
//   - the snippet classification framework with the paper's M1–M6
//     ablations from internal/classifier;
//   - the synthetic sponsored-search corpus and user simulator that
//     substitute for the paper's proprietary ADCORPUS, from
//     internal/adcorpus and internal/serp.
//
// The experiment harness regenerating Table 2, Figure 3 and Table 4
// is internal/experiments, driven by cmd/experiments. Two future-work
// directions from the paper's Section VI are also implemented:
// HMM-based eye-tracking studies (internal/gaze) and snippet
// generation (internal/optimize), whose variants an Engine scores and
// ranks.
//
// See the examples/ directory for runnable walk-throughs and DESIGN.md
// for the system inventory.
package microbrowsing

import (
	"repro/internal/adcorpus"
	"repro/internal/classifier"
	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/featstats"
	"repro/internal/serp"
	"repro/internal/snippet"
	"repro/internal/textproc"
)

// Unified scoring engine (the primary public API).
type (
	// Engine routes scoring requests to named, versioned scorers and
	// scores batches on the goroutine that hands them in, helped by a
	// capped number of extra strands, with context cancellation.
	Engine = engine.Engine
	// ScoreRequest is one CTR-prediction unit of work: a model
	// reference ("pbm", "pbm@3") plus macro (Session) or micro (Lines)
	// evidence.
	ScoreRequest = engine.Request
	// ScoreResponse is the outcome of scoring one request. Failures
	// travel as Err in process and as the Error string on the wire.
	ScoreResponse = engine.Response
	// EngineObserver is the engine's instrument block: stage-timing
	// histograms plus per-model predicted-CTR distribution tracking
	// (attach with WithObserver; see /metrics and /healthz drift).
	EngineObserver = engine.Observer
)

// ModelMicro is the reserved scorer name of the micro-browsing model.
const ModelMicro = engine.NameMicro

// Engine constructors and options.
var (
	// NewEngine returns a scoring engine; see WithWorkers and
	// WithDefaultModel.
	NewEngine = engine.New
	// WithWorkers sets the engine-wide cap on batch-scoring strands;
	// the goroutine that calls ScoreBatch always scores.
	WithWorkers = engine.WithWorkers
	// WithDefaultModel sets the scorer used when a request names none.
	WithDefaultModel = engine.WithDefaultModel
	// WithKeepVersions bounds the version history kept per model name.
	WithKeepVersions = engine.WithKeepVersions
	// WithObserver attaches an EngineObserver, turning on stage timing
	// and per-model CTR distribution tracking.
	WithObserver = engine.WithObserver
	// MicroModelFromStats builds a servable micro-browsing model from
	// a feature statistics database.
	MicroModelFromStats = engine.MicroFromStats
	// MeanCTR averages the headline CTR over a batch of responses,
	// surfacing the first per-request error.
	MeanCTR = engine.MeanCTR
)

// Click models by name: macro models are constructible by config
// string ("pbm", "cascade", ..., see ClickModelNames).
var (
	// NewClickModel constructs a fresh, unfitted model by name.
	NewClickModel = clickmodel.New
	// ClickModelNames lists the registered names in taxonomy order.
	ClickModelNames = clickmodel.Names
)

// LoadClickModel reads any click-model artifact, constructing the
// model named in its header through the registry.
var LoadClickModel = clickmodel.LoadModel

// CompileSessions validates and interns a session log once (queries
// and (query, doc) pairs to dense IDs, flat click arrays): the form
// Engine.Fit trains every click model from, so several models fit on
// one log without re-hashing strings. See the README "Performance"
// section.
var CompileSessions = clickmodel.Compile

// Micro-browsing model (the paper's contribution).
type (
	// Model is the micro-browsing model: per-term relevance plus an
	// attention layer over (line, position) micro-positions.
	Model = core.Model
	// GeometricAttention is the parametric line-weight × positional
	// decay attention family.
	GeometricAttention = core.GeometricAttention
)

// NewModel returns a micro-browsing model with the given attention.
func NewModel(att core.Attention) *Model { return core.NewModel(att) }

// ExtractTerms tokenises snippet lines into positioned n-grams (1..maxN).
func ExtractTerms(lines []string, maxN int) []textproc.Term {
	return textproc.ExtractTerms(lines, maxN)
}

// Snippets and creatives.
type (
	// Creative is a multi-line ad creative / snippet.
	Creative = snippet.Creative
	// CreativePair is a same-adgroup creative pair with serve weights.
	CreativePair = snippet.Pair
)

// NewCreative builds a creative from up to three lines.
func NewCreative(id string, lines ...string) (Creative, error) {
	return snippet.New(id, lines...)
}

// Macro click models (Section II of the paper).
type (
	// ClickModel is a macro browsing model: fitted from a compiled log
	// (FitLog), scored into a buffer (ClickProbsInto) and serialized to
	// a self-describing binary artifact (Save) that LoadClickModel reads
	// back and cmd/microserve hot-swaps over HTTP.
	ClickModel = clickmodel.Model
	// Session is one query impression with its click pattern: the
	// element of the log CompileSessions takes.
	Session = clickmodel.Session
)

// EvaluateClickModel scores a fitted model on held-out sessions.
func EvaluateClickModel(m ClickModel, sessions []Session) clickmodel.Evaluation {
	return clickmodel.Evaluate(m, sessions)
}

// ClassifierOptions tunes the learners of the snippet classification
// framework (Figure 1, models M1–M6).
type ClassifierOptions = classifier.Options

// The six ablation variants of Table 2.
var (
	M1 = classifier.M1
	M2 = classifier.M2
	M3 = classifier.M3
	M4 = classifier.M4
	M5 = classifier.M5
	M6 = classifier.M6
)

// NewExtractor returns the phase-one feature extractor.
func NewExtractor() *classifier.Extractor { return classifier.NewExtractor() }

// NewPipeline returns the phase-two data generator for a spec.
func NewPipeline(spec classifier.ModelSpec, db *featstats.DB) *classifier.Pipeline {
	return classifier.NewPipeline(spec, db)
}

// Synthetic corpus and simulator (the ADCORPUS substitute).
type (
	// CorpusConfig controls corpus generation.
	CorpusConfig = adcorpus.Config
	// SimConfig controls the simulation.
	SimConfig = serp.Config
)

// DefaultLexicon returns the built-in phrase inventory.
func DefaultLexicon() *adcorpus.Lexicon { return adcorpus.DefaultLexicon() }

// DefaultAttention returns the planted micro-attention curve used by
// the simulator — a sensible default attention layer for serving.
func DefaultAttention() GeometricAttention { return serp.DefaultAttention() }

// GenerateCorpus builds a deterministic synthetic ADCORPUS.
func GenerateCorpus(cfg CorpusConfig, lex *adcorpus.Lexicon) *adcorpus.Corpus {
	return adcorpus.Generate(cfg, lex)
}

// NewSimulator returns a user simulator running the two-layer
// (macro × micro) user model.
func NewSimulator(cfg SimConfig) *serp.Simulator { return serp.New(cfg) }
