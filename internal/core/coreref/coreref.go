// Package coreref is the test-only reference implementation of the
// micro-browsing model: Eq. 3 and Eq. 5–8 of the paper evaluated term
// by term over a core.Model's Relevance map and Attention layer, with
// no interning, no precomputed logarithms and no caching. It is the
// oracle the 1e-12 parity suites and the benchmarks hold
// core.CompiledModel.ScoreSnippet and ScoreCandidates against, the
// arrangement encoding/json has for the score-route scanner and the
// linear probe has for the tagged vocabulary lookup, and the statement
// of the pairwise forms (ScorePair, ScoreRewrites, DecoupledScore) that
// core's tests pin to each other. Its terms come from
// textproc.ExtractTerms, which cuts them from the same token spans the
// kernel walks; textproc's tests hold ExtractTerms to an independent
// strings.Fields statement.
//
// No non-test package may import it; scripts/lint.sh enforces that.
package coreref

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/textproc"
)

// TermRelevance returns r for the term text: the model's Relevance
// entry, or DefaultRelevance (0.5 when 0) for an absent term, clamped
// to (0, 1] so that log r is finite — the clamp the compiled tables
// bake in.
func TermRelevance(m *core.Model, text string) float64 {
	r, ok := m.Relevance[text]
	if !ok {
		r = m.DefaultRelevance
		if r == 0 {
			r = 0.5
		}
	}
	if r < 1e-9 {
		r = 1e-9
	}
	if r > 1 {
		r = 1
	}
	return r
}

// Examine returns the examination probability of a term's
// micro-position; a nil Attention reads every term.
func Examine(m *core.Model, t textproc.Term) float64 {
	if m.Attention == nil {
		return 1
	}
	return m.Attention.Examine(t.Line, t.Pos)
}

// SnippetLogProb evaluates Eq. 3 in log space for a concrete examination
// vector: log Pr(R|q) = Σ v_i·log r_i. examined must be parallel to
// terms; a nil examined means every term was read.
func SnippetLogProb(m *core.Model, terms []textproc.Term, examined []bool) float64 {
	var lp float64
	for i, t := range terms {
		if examined == nil || examined[i] {
			lp += math.Log(TermRelevance(m, t.Text))
		}
	}
	return lp
}

// SampleExamination draws a concrete examination vector v for the terms
// under the attention layer. Deterministic given the rng state.
func SampleExamination(m *core.Model, rng *rand.Rand, terms []textproc.Term) []bool {
	v := make([]bool, len(terms))
	for i, t := range terms {
		v[i] = rng.Float64() < Examine(m, t)
	}
	return v
}

// ExpectedScore is the expectation of Σ v_i·log r_i under the attention
// layer, E[v_i] = Examine(line_i, pos_i): the per-snippet score whose
// differences are Eq. 5.
func ExpectedScore(m *core.Model, terms []textproc.Term) float64 {
	var s float64
	for _, t := range terms {
		s += Examine(m, t) * math.Log(TermRelevance(m, t.Text))
	}
	return s
}

// ScorePair evaluates Eq. 5 in expectation: the log probability ratio of
// snippet R over snippet S. Positive means R is the better snippet.
func ScorePair(m *core.Model, r, s []textproc.Term) float64 {
	return ExpectedScore(m, r) - ExpectedScore(m, s)
}

// RewritePair is one matched rewrite between a pair of snippets: the
// term From in R was rewritten to the term To in S (the (p,q) entries of
// pair(R,S) in Eq. 6).
type RewritePair struct {
	From, To textproc.Term
}

// ScoreRewrites evaluates Eq. 6: the pair score refactored into matched
// rewrites plus the leftover terms present only in R or only in S.
// Because Eq. 6 is an exact refactoring of Eq. 5, the result equals
// ScorePair whenever pairs ∪ onlyR covers R's terms and pairs ∪ onlyS
// covers S's terms.
func ScoreRewrites(m *core.Model, pairs []RewritePair, onlyR, onlyS []textproc.Term) float64 {
	var s float64
	for _, p := range pairs {
		s += Examine(m, p.From) * math.Log(TermRelevance(m, p.From.Text))
		s -= Examine(m, p.To) * math.Log(TermRelevance(m, p.To.Text))
	}
	for _, t := range onlyR {
		s += Examine(m, t) * math.Log(TermRelevance(m, t.Text))
	}
	for _, t := range onlyS {
		s -= Examine(m, t) * math.Log(TermRelevance(m, t.Text))
	}
	return s
}

// DecoupledScore evaluates Eq. 8: position and relevance are decoupled
// so that rewrite relevance statistics can be shared across positions.
// The position factor f(v_p, w_q) is taken as the mean examination
// probability of the two micro-positions — the symmetric choice; the
// classifier learns its own f from data (Eq. 9).
func DecoupledScore(m *core.Model, pairs []RewritePair) float64 {
	var s float64
	for _, p := range pairs {
		f := (Examine(m, p.From) + Examine(m, p.To)) / 2
		s += f * math.Log(TermRelevance(m, p.From.Text)/TermRelevance(m, p.To.Text))
	}
	return s
}

// ScoreSnippet walks the snippet's extracted terms once and returns
// the micro CTR — the exact expectation of Eq. 3 under independent
// micro-examination, Π (a_i·r_i + 1 − a_i) — and the expected
// log-probability score Σ a_i·log r_i whose pairwise differences
// reproduce Eq. 5. A snippet with no terms, or a NaN product, has CTR 0.
func ScoreSnippet(m *core.Model, lines []string, maxN int) (ctr, score float64) {
	terms := textproc.ExtractTerms(lines, maxN)
	ctr = 1.0
	for _, t := range terms {
		a := Examine(m, t)
		r := TermRelevance(m, t.Text)
		ctr *= a*r + 1 - a
		score += a * math.Log(r)
	}
	if len(terms) == 0 || math.IsNaN(ctr) {
		ctr = 0
	}
	return ctr, score
}

// ScoreCandidates scores each candidate snippet with ScoreSnippet,
// writing into out (reused when it has the capacity): the output
// contract of core.CompiledModel.ScoreCandidates with none of its
// sharing between candidates.
func ScoreCandidates(m *core.Model, cands [][]string, maxN int, out []core.CandidateScore) []core.CandidateScore {
	if cap(out) >= len(cands) {
		out = out[:len(cands)]
	} else {
		out = make([]core.CandidateScore, len(cands))
	}
	for i, lines := range cands {
		ctr, score := ScoreSnippet(m, lines, maxN)
		out[i] = core.CandidateScore{CTR: ctr, Score: score}
	}
	return out
}
