// Package core implements the paper's primary contribution: the
// micro-browsing model for search result snippets.
//
// Classical click models (internal/clickmodel) estimate whether a user
// examines a whole result. The micro-browsing model descends one level:
// for a snippet R with m terms it posits a per-term relevance r_i ∈ [0,1]
// and a per-term examination indicator v_i ∈ {0,1}, and judges the
// snippet only by the terms the user actually read:
//
//	Pr(R|q) = Π_i r_i^{v_i}                                   (Eq. 3)
//
// Comparing two snippets R and S for the same query yields the log
// probability ratio
//
//	score(R→S|q) = Σ_i v_i·log r_i − Σ_j w_j·log s_j           (Eq. 5)
//
// which, given a matching pair(R,S) of rewritten term positions, can be
// refactored into rewrite terms plus leftover one-sided terms (Eq. 6),
// and — decoupling position from relevance to fight sparsity — into the
// bilinear form the coupled classifier learns (Eq. 8).
//
// Examination indicators are latent; the package models them through an
// Attention: the probability that the micro-position (line, pos) is read.
// Serving replaces the indicators by their expectation: a Model is
// compiled (Compile, or CompiledFromArtifact over a v2 artifact) into
// the CompiledModel whose ScoreSnippet is the one scoring pass
// production runs. The equations stated term by term over a Model —
// Eq. 3, the pairwise forms of Eq. 5, 6 and 8, and sampled examination
// vectors — are the test-only reference package coreref.
package core

import "math"

// Attention models micro-examination: the probability that a user reads
// the term starting at a (line, pos) micro-position. Implementations
// must return values in [0, 1].
type Attention interface {
	Examine(line, pos int) float64
}

// GeometricAttention is the parametric attention family used as ground
// truth in the simulator and as a sensible default prior: line l carries
// weight LineWeights[l-1], and attention decays geometrically with the
// term's position within the line.
//
// The shape encodes the two regularities the paper's Figure 3 recovers:
// earlier lines are read more than later lines, and within a line
// earlier positions are read more than later ones.
type GeometricAttention struct {
	LineWeights []float64 // per-line multiplier, e.g. {0.95, 0.7, 0.45}
	Decay       float64   // per-position multiplier in (0, 1], e.g. 0.85
}

// Examine implements Attention.
func (g GeometricAttention) Examine(line, pos int) float64 {
	if line < 1 || pos < 1 {
		return 0
	}
	w := 0.0
	if line-1 < len(g.LineWeights) {
		w = g.LineWeights[line-1]
	}
	if w <= 0 {
		return 0
	}
	p := w * math.Pow(g.Decay, float64(pos-1))
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// TableAttention is an explicit (line, pos) table, used to hold learned
// position weights (e.g. the coupled classifier's P factors rescaled to
// probabilities). Missing cells fall back to Default.
type TableAttention struct {
	W       [][]float64 // W[line-1][pos-1]
	Default float64
}

// Examine implements Attention.
func (t TableAttention) Examine(line, pos int) float64 {
	if line >= 1 && line-1 < len(t.W) && pos >= 1 && pos-1 < len(t.W[line-1]) {
		v := t.W[line-1][pos-1]
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return t.Default
}

// FullAttention examines every micro-position with probability 1. Under
// FullAttention the micro-browsing model degenerates to a bag-of-terms
// model — the paper's M1/M3/M5 ablations ("v_a and w_b set to 1 for all
// terms").
type FullAttention struct{}

// Examine implements Attention.
func (FullAttention) Examine(line, pos int) float64 { return 1 }

// Model is a micro-browsing model: per-term relevance plus an attention
// layer giving each micro-position's examination probability.
type Model struct {
	// Relevance maps a term's text to r ∈ (0, 1]. Terms absent from the
	// map have DefaultRelevance.
	Relevance map[string]float64
	// DefaultRelevance is used for unknown terms (default 0.5 when 0).
	DefaultRelevance float64
	// Attention provides examination probabilities; nil means
	// FullAttention.
	Attention Attention
}

// NewModel returns a Model with the given attention and an empty
// relevance table.
func NewModel(att Attention) *Model {
	return &Model{Relevance: make(map[string]float64), DefaultRelevance: 0.5, Attention: att}
}

func (m *Model) attention() Attention {
	if m.Attention == nil {
		return FullAttention{}
	}
	return m.Attention
}
