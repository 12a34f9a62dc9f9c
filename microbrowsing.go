// Package microbrowsing is the public facade of this reproduction of
// "Micro-Browsing Models for Search Snippets" (Islam, Srikant, Basu;
// ICDE 2019). Its primary entry point is the unified scoring engine:
// a registry-backed, context-aware batch CTR API over both browsing
// levels of the paper.
//
//	eng := microbrowsing.NewEngine(
//		microbrowsing.WithWorkers(8),
//		microbrowsing.WithAttention(attention))
//	eng.Fit("pbm", trainSessions)           // macro model, by registry name
//	resps := eng.ScoreBatch(ctx, requests)  // concurrent, per-request errors
//
// A ScoreRequest selects its model by reference — "pbm" for the
// latest installed version, "pbm@3" to pin one (ClickModelNames lists
// the registry; "micro" is the micro-browsing model) — and carries
// either a Session (macro evidence: one ranked impression) or snippet
// Lines (micro evidence). Every scorer answers the same question — the
// probability of a click — through the one Scorer interface, so click
// models and the micro model are interchangeable estimators behind a
// config string.
//
// The engine is built for the train-offline / serve-online split:
// every install (Engine.Install, and Fit, UseMicro and LoadSnapshot,
// which end in it) publishes an immutable new version into a
// lock-free table, fitted models Save to
// self-describing binary artifacts and Load back (Model.Load,
// LoadClickModel, Engine.LoadSnapshot), Rollback un-ships a bad
// artifact, and cmd/microserve is the HTTP front over exactly this
// surface. See internal/engine for the full contract and the README
// "Serving" section for the fit → snapshot → serve → hot-swap
// walkthrough.
//
// Around the engine, the facade re-exports the building blocks:
//
//   - the micro-browsing model itself (per-term relevance × per-position
//     attention, Eq. 3–8 of the paper) from internal/core;
//   - snippet/creative types and serve-weight bookkeeping from
//     internal/snippet;
//   - the classical macro click models (PBM, cascade, DCM, UBM, BBM,
//     CCM, DBN, SDBN, GCM) plus the post-click session utility model
//     (SUM) from internal/clickmodel, constructible by name through
//     the registry;
//   - the snippet classification framework with the paper's M1–M6
//     ablations from internal/classifier;
//   - the synthetic sponsored-search corpus and user simulator that
//     substitute for the paper's proprietary ADCORPUS, from
//     internal/adcorpus and internal/serp;
//   - the experiment harness regenerating Table 2, Figure 3 and
//     Table 4 from internal/experiments.
//
// Two future-work directions from the paper's Section VI are also
// implemented: HMM-based eye-tracking studies (internal/gaze) and
// snippet generation (internal/optimize), whose variants an Engine
// scores and ranks.
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
	"repro/internal/experiments"
	"repro/internal/featstats"
	"repro/internal/optimize"
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
	// EngineOption configures NewEngine.
	EngineOption = engine.Option
	// ScoreRequest is one CTR-prediction unit of work: a model
	// reference ("pbm", "pbm@3") plus macro (Session) or micro (Lines)
	// evidence.
	ScoreRequest = engine.Request
	// ScoreResponse is the outcome of scoring one request. Failures
	// travel as Err in process and as the Error string on the wire.
	ScoreResponse = engine.Response
	// Scorer is the unified scoring surface implemented by the click
	// model and micro-browsing adapters.
	Scorer = engine.Scorer
	// ModelInfo is the metadata of one installed model version
	// (Engine.Models, GET /v1/models).
	ModelInfo = engine.ModelInfo
	// EngineObserver is the engine's instrument block: stage-timing
	// histograms plus per-model predicted-CTR distribution tracking
	// (attach with WithObserver; see /metrics and /healthz drift).
	EngineObserver = engine.Observer
)

// ModelMicro is the reserved scorer name of the micro-browsing model.
const ModelMicro = engine.NameMicro

// Engine constructors and options.
var (
	// NewEngine returns a scoring engine; see WithWorkers,
	// WithAttention and WithDefaultModel.
	NewEngine = engine.New
	// WithWorkers sets the engine-wide cap on batch-scoring strands;
	// the goroutine that calls ScoreBatch always scores.
	WithWorkers = engine.WithWorkers
	// WithAttention sets the attention layer of the engine's default
	// micro scorer.
	WithAttention = engine.WithAttention
	// WithDefaultModel sets the scorer used when a request names none.
	WithDefaultModel = engine.WithDefaultModel
	// WithKeepVersions bounds the version history kept per model name.
	WithKeepVersions = engine.WithKeepVersions
	// WithObserver attaches an EngineObserver, turning on stage timing
	// and per-model CTR distribution tracking.
	WithObserver = engine.WithObserver
	// NewClickModelScorer adapts a fitted macro click model to Scorer.
	NewClickModelScorer = engine.NewClickModelScorer
	// NewMicroScorer adapts a micro-browsing model to Scorer.
	NewMicroScorer = engine.NewMicroScorer
	// MicroModelFromStats builds a servable micro-browsing model from
	// a feature statistics database.
	MicroModelFromStats = engine.MicroFromStats
	// MeanCTR averages the headline CTR over a batch of responses,
	// surfacing the first per-request error.
	MeanCTR = engine.MeanCTR
)

// Click model registry: macro models are constructible by config
// string ("pbm", "cascade", ..., see ClickModelNames).
var (
	// RegisterClickModel adds a model factory under a new name.
	RegisterClickModel = clickmodel.Register
	// NewClickModel constructs a fresh, unfitted model by name.
	NewClickModel = clickmodel.New
	// LookupClickModel returns the factory registered under a name.
	LookupClickModel = clickmodel.Lookup
	// ClickModelNames lists the registered names in taxonomy order.
	ClickModelNames = clickmodel.Names
)

// Versioned model snapshots: fitted models serialize to
// self-describing binary artifacts (fit offline → Save → ship → Load
// into a serving engine; cmd/microserve hot-swaps them over HTTP).
type (
	// ClickModelSnapshotter is the Save/Load artifact contract every
	// built-in click model implements.
	ClickModelSnapshotter = clickmodel.Snapshotter
)

// LoadClickModel reads any click-model artifact, constructing the
// model named in its header through the registry.
var LoadClickModel = clickmodel.LoadModel

// Compiled session logs: CompileSessions interns a log once (queries
// and (query, doc) pairs to dense IDs, flat click/derived-state
// arrays); every built-in click model then fits from it via FitLog
// without re-hashing strings, with the E-step sharded over a worker
// pool. See the README "Performance" section.
type (
	// CompiledSessionLog is the interned, dense form of a session log.
	CompiledSessionLog = clickmodel.CompiledLog
	// ClickModelLogFitter is implemented by models fittable from a
	// CompiledSessionLog.
	ClickModelLogFitter = clickmodel.LogFitter
	// FitOption tunes a registry model before Engine.Fit trains it.
	FitOption = engine.FitOption
)

var (
	// CompileSessions validates and interns a session log for dense fits.
	CompileSessions = clickmodel.Compile
	// FitIterations is the Engine.Fit option setting EM iteration counts.
	FitIterations = engine.Iterations
)

// Micro-browsing model (the paper's contribution).
type (
	// Model is the micro-browsing model: per-term relevance plus an
	// attention layer over (line, position) micro-positions.
	Model = core.Model
	// Attention maps a micro-position to its examination probability.
	Attention = core.Attention
	// GeometricAttention is the parametric line-weight × positional
	// decay attention family.
	GeometricAttention = core.GeometricAttention
	// TableAttention holds explicit (possibly learned) position weights.
	TableAttention = core.TableAttention
	// FullAttention reads every term: the bag-of-terms degenerate case.
	FullAttention = core.FullAttention
	// RewritePair is a matched phrase rewrite between two snippets.
	RewritePair = core.RewritePair
	// Term is a positioned n-gram.
	Term = textproc.Term
)

// NewModel returns a micro-browsing model with the given attention.
func NewModel(att Attention) *Model { return core.NewModel(att) }

// ExtractTerms tokenises snippet lines into positioned n-grams (1..maxN).
func ExtractTerms(lines []string, maxN int) []Term {
	return textproc.ExtractTerms(lines, maxN)
}

// Snippets and creatives.
type (
	// Creative is a multi-line ad creative / snippet.
	Creative = snippet.Creative
	// CreativeStats holds click/impression counts.
	CreativeStats = snippet.Stats
	// CreativePair is a same-adgroup creative pair with serve weights.
	CreativePair = snippet.Pair
	// AdGroup groups alternative creatives for one keyword.
	AdGroup = snippet.AdGroup
)

// NewCreative builds a creative from up to three lines.
func NewCreative(id string, lines ...string) (Creative, error) {
	return snippet.New(id, lines...)
}

// Macro click models (Section II of the paper).
type (
	// ClickModel is a trainable macro browsing model.
	ClickModel = clickmodel.Model
	// Session is one query impression with its click pattern.
	Session = clickmodel.Session
	// ClickModelEvaluation aggregates log-likelihood and perplexity.
	ClickModelEvaluation = clickmodel.Evaluation
)

// AllClickModels returns a fresh instance of every macro model.
func AllClickModels() []ClickModel { return clickmodel.All() }

// EvaluateClickModel scores a fitted model on held-out sessions.
func EvaluateClickModel(m ClickModel, sessions []Session) ClickModelEvaluation {
	return clickmodel.Evaluate(m, sessions)
}

// Snippet classification framework (Figure 1, models M1–M6).
type (
	// ClassifierSpec selects one of the paper's ablation variants.
	ClassifierSpec = classifier.ModelSpec
	// ClassifierOptions tunes the learners.
	ClassifierOptions = classifier.Options
	// ClassifierResult is a cross-validated Table 2 row.
	ClassifierResult = classifier.Result
	// TrainedClassifier is a fitted snippet classifier.
	TrainedClassifier = classifier.Trained
	// StatsDB is the feature statistics database of Section V-C.
	StatsDB = featstats.DB
)

// The six ablation variants of Table 2.
var (
	M1 = classifier.M1
	M2 = classifier.M2
	M3 = classifier.M3
	M4 = classifier.M4
	M5 = classifier.M5
	M6 = classifier.M6
)

// ClassifierSpecs returns M1..M6 in Table 2 order.
func ClassifierSpecs() []ClassifierSpec { return classifier.Specs() }

// NewExtractor returns the phase-one feature extractor.
func NewExtractor() *classifier.Extractor { return classifier.NewExtractor() }

// NewPipeline returns the phase-two data generator for a spec.
func NewPipeline(spec ClassifierSpec, db *StatsDB) *classifier.Pipeline {
	return classifier.NewPipeline(spec, db)
}

// CrossValidateClassifier runs the paper's k-fold evaluation of a spec.
func CrossValidateClassifier(spec ClassifierSpec, pairs []CreativePair, db *StatsDB, k int, seed int64, opt ClassifierOptions) (ClassifierResult, error) {
	return classifier.CrossValidate(spec, pairs, db, k, seed, opt)
}

// Synthetic corpus and simulator (the ADCORPUS substitute).
type (
	// Corpus is the synthetic sponsored-search corpus.
	Corpus = adcorpus.Corpus
	// CorpusConfig controls corpus generation.
	CorpusConfig = adcorpus.Config
	// Lexicon is the phrase inventory with planted appeals.
	Lexicon = adcorpus.Lexicon
	// Simulator runs the two-layer (macro × micro) user model.
	Simulator = serp.Simulator
	// SimConfig controls the simulation.
	SimConfig = serp.Config
)

// Placements for the macro examination layer.
const (
	PlacementTop = serp.Top
	PlacementRHS = serp.RHS
)

// DefaultLexicon returns the built-in phrase inventory.
func DefaultLexicon() *Lexicon { return adcorpus.DefaultLexicon() }

// DefaultAttention returns the planted micro-attention curve used by
// the simulator — a sensible default attention layer for serving.
func DefaultAttention() GeometricAttention { return serp.DefaultAttention() }

// GenerateCorpus builds a deterministic synthetic ADCORPUS.
func GenerateCorpus(cfg CorpusConfig, lex *Lexicon) *Corpus {
	return adcorpus.Generate(cfg, lex)
}

// NewSimulator returns a user simulator.
func NewSimulator(cfg SimConfig) *Simulator { return serp.New(cfg) }

// Experiments (Table 2, Figure 3, Table 4).
type (
	// ExperimentSetup configures an experiment run.
	ExperimentSetup = experiments.Setup
	// Figure3Data holds learned per-line position weights.
	Figure3Data = experiments.Figure3Data
	// Table4Row is one top-vs-RHS accuracy row.
	Table4Row = experiments.Table4Row
)

// Experiment entry points.
var (
	DefaultExperimentSetup = experiments.DefaultSetup
	RunTable2              = experiments.Table2
	RunFigure3             = experiments.Figure3
	RunTable4              = experiments.Table4
	FormatTable2           = experiments.FormatTable2
	FormatFigure3          = experiments.FormatFigure3
	FormatTable4           = experiments.FormatTable4
)

// Snippet optimisation (the paper's "automatic generation of snippets"
// future work): GenerateVariants lists a creative's single-edit
// variants drawn from a phrase inventory, and an Engine's
// ScoreCandidates scores the base and every variant in one pass — the
// path /v1/optimize serves.
type (
	// OptimizerEdit is one proposed change.
	OptimizerEdit = optimize.Edit
	// OptimizerCandidate is one creative variant and the edit that made
	// it.
	OptimizerCandidate = optimize.Candidate
)

// GenerateVariants lists the single-edit variants of a creative drawn
// from a phrase inventory.
var GenerateVariants = optimize.Generate
