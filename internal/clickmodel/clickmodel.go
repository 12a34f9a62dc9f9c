// Package clickmodel implements the classical macro user-browsing models for
// ranked search results surveyed in Section II of the paper: the position
// model (examination hypothesis), the cascade model, the dependent click
// model (DCM), the user browsing model (UBM), a Bayesian browsing variant
// (BBM), the click chain model (CCM), the dynamic Bayesian network model
// (DBN), its simplified form (SDBN), a generalised chain model (GCM) and
// a post-click session utility model (SUM).
//
// These models estimate, per result position, the probability that a user
// examines the *whole* result. They serve two roles in this repository:
// they are the baselines the micro-browsing model is contrasted with, and
// they drive the macro (SERP-level) examination layer of the sponsored
// search simulator in internal/serp.
//
// All models share the Session type — one query impression with the shown
// documents and the observed click pattern — and the Model interface, so
// they can be fitted and evaluated interchangeably. Estimation runs on a
// compiled form of the log (see CompiledLog): (query, doc) pairs are
// interned to dense int32 IDs once — by the one pair interner, which
// resolves a query once and then each doc with one probe — and the
// passes accumulate into flat ID-indexed arrays instead of rebuilding
// string-keyed maps per iteration: the EM models' E-steps sharded over a
// worker pool, the counting models (SDBN, Cascade, DCM) in one pass into
// a Stats — their sufficient statistics, grown a session at a time by an
// online learner or filled at once from a compiled log — from which
// FitStats, the one statement of their closed forms, estimates into a
// pair table of the model's own and one dense value array per parameter.
// That is every model's fitted form: the EM models fit their per-pair
// values in place over the compiled log's pair table, which they keep.
// Every model fits through FitLog: callers fitting several models on
// one log Compile it once.
package clickmodel

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// Session is a single query impression: the ranked documents that were
// shown and which of them were clicked. Docs[i] is the document at
// position i+1 (positions are 1-based in the literature, 0-based here as
// slice indices).
// The JSON tags make sessions part of the serving wire format (the
// macro evidence of cmd/microserve's /v1/score requests).
type Session struct {
	Query  string   `json:"query"`
	Docs   []string `json:"docs"`
	Clicks []bool   `json:"clicks"`
}

// Validate reports whether the session is well-formed.
func (s Session) Validate() error {
	if len(s.Docs) == 0 {
		return errors.New("clickmodel: session has no documents")
	}
	if len(s.Docs) != len(s.Clicks) {
		return fmt.Errorf("clickmodel: %d docs but %d click indicators", len(s.Docs), len(s.Clicks))
	}
	return nil
}

// LastClick returns the 0-based index of the last clicked position, or -1
// if the session has no click.
func (s Session) LastClick() int {
	for i := len(s.Clicks) - 1; i >= 0; i-- {
		if s.Clicks[i] {
			return i
		}
	}
	return -1
}

// FirstClick returns the 0-based index of the first clicked position, or
// -1 if the session has no click.
func (s Session) FirstClick() int {
	for i, c := range s.Clicks {
		if c {
			return i
		}
	}
	return -1
}

// Model is a click model: what Train fits, the engine scores and an
// artifact holds. Every built-in model implements it, and only they
// can — params is unexported — so every Model has a parameter list.
type Model interface {
	// Name identifies the model in reports ("PBM", "UBM", ...).
	Name() string

	// FitLog estimates the model parameters from a compiled session log
	// (see Compile): compile once, then fit any number of models on it.
	// Refitting reuses the model's parameter storage (value slices and
	// pair tables) in place, so a steady-state refit allocates nothing;
	// treat a model as read-only for other goroutines while a refit is
	// in flight.
	FitLog(c *CompiledLog) error

	InplaceScorer

	// SessionLogLikelihood returns log P(observed click vector) under the
	// model, honouring the model's sequential dependence structure.
	SessionLogLikelihood(s Session) float64

	// Save writes the model's complete v2 artifact, which LoadModel
	// thaws back into a fresh model (see v2.go) and FromArtifact serves.
	// An artifact holds what scoring reads, not how the model was
	// fitted: an EM model's Iterations is not saved — a loaded model
	// keeps its constructor's count — so set Iterations (BBM's
	// Browse.Iterations) before refitting a loaded model whose fit used
	// another.
	Save(w io.Writer) error

	// params is the model's parameter list (snapshot.go): the one place
	// its artifact layout is spelled.
	params() []param
}

// Examiner is implemented by models that expose a marginal examination
// probability per position (before conditioning on any click), such as the
// position model. Used by the simulator and by examination-curve reports.
type Examiner interface {
	ExaminationProbs(s Session) []float64
}

// InplaceScorer is Model's scoring half. ClickProbsInto returns the
// marginal probability P(C_i = 1) for every position of the session,
// using only the query and shown documents (never the session's own
// clicks): the quantity scored by perplexity and used for CTR
// prediction. The returned slice is buf (resliced) when buf has the
// capacity, or a fresh slice otherwise, so repeated scoring into one
// buffer allocates nothing.
type InplaceScorer interface {
	ClickProbsInto(s Session, buf []float64) []float64
}

// maxStackPositions is the deepest result list for which the scoring
// recursions keep their state on the stack; longer (rare) sessions
// fall back to heap scratch.
const maxStackPositions = 64

// resizeProbs returns buf resliced to n when it has the capacity, or a
// fresh slice of length n.
func resizeProbs(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// qd keys attractiveness/relevance parameters by (query, document).
type qd struct{ q, d string }

// compareQD orders pairs by query, then doc: the order artifacts list
// them in.
func compareQD(a, b qd) int { return cmp.Or(strings.Compare(a.q, b.q), strings.Compare(a.d, b.d)) }

// probEps clamps probabilities away from {0,1} so logarithms and EM
// posteriors stay finite.
const probEps = 1e-9

func clampProb(p float64) float64 {
	if p < probEps {
		return probEps
	}
	if p > 1-probEps {
		return 1 - probEps
	}
	return p
}

func log(p float64) float64 { return math.Log(clampProb(p)) }

// bernoulliLL returns log P(click=c) for a Bernoulli with parameter p.
func bernoulliLL(p float64, c bool) float64 {
	if c {
		return log(p)
	}
	return log(1 - p)
}

// maxPositions scans a session log for the longest result list.
func maxPositions(sessions []Session) int {
	max := 0
	for _, s := range sessions {
		if len(s.Docs) > max {
			max = len(s.Docs)
		}
	}
	return max
}

// validateAll checks every session and the log as a whole.
func validateAll(sessions []Session) error {
	if len(sessions) == 0 {
		return errors.New("clickmodel: empty session log")
	}
	for i, s := range sessions {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	return nil
}

// MeanCTRByPosition returns the empirical CTR at each position of the log,
// a useful model-free baseline and sanity check.
func MeanCTRByPosition(sessions []Session) []float64 {
	n := maxPositions(sessions)
	clicks := make([]float64, n)
	imps := make([]float64, n)
	for _, s := range sessions {
		for i, c := range s.Clicks {
			imps[i]++
			if c {
				clicks[i]++
			}
		}
	}
	out := make([]float64, n)
	for i := range out {
		if imps[i] > 0 {
			out[i] = clicks[i] / imps[i]
		}
	}
	return out
}
