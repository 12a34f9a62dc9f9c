// Package coreref is the test-only reference implementation of the
// micro-browsing score: Eq. 3 and Eq. 5 of the paper evaluated term by
// term over a core.Model's Relevance map and Attention layer, with no
// interning, no precomputed logarithms and no caching. It is the oracle
// the 1e-12 parity suites and the benchmarks hold
// core.CompiledModel.ScoreSnippet and ScoreCandidates against, the
// arrangement encoding/json has for the score-route scanner and the
// linear probe has for the tagged vocabulary lookup. Its terms come
// from textproc.ExtractTerms, which cuts them from the same token spans
// the kernel walks; textproc's tests hold ExtractTerms to an independent
// strings.Fields statement.
//
// No non-test package may import it; scripts/lint.sh enforces that.
package coreref

import (
	"math"

	"repro/internal/core"
	"repro/internal/textproc"
)

// ScoreSnippet walks the snippet's extracted terms once and returns
// the micro CTR — the exact expectation of Eq. 3 under independent
// micro-examination, Π (a_i·r_i + 1 − a_i) — and the expected
// log-probability score Σ a_i·log r_i whose pairwise differences
// reproduce Eq. 5. A snippet with no terms, or a NaN product, has CTR 0.
func ScoreSnippet(m *core.Model, lines []string, maxN int) (ctr, score float64) {
	terms := textproc.ExtractTerms(lines, maxN)
	ctr = 1.0
	for _, t := range terms {
		a := m.Examine(t)
		r := m.TermRelevance(t.Text)
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
