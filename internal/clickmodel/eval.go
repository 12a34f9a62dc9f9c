package clickmodel

import "math"

// Evaluation holds aggregate quality metrics for a fitted click model on a
// held-out session log, matching the measures customary in the click-model
// literature (PyClick et al.).
type Evaluation struct {
	Model string
	// LogLikelihood is the mean per-session log-likelihood.
	LogLikelihood float64
	// Perplexity is the overall click-prediction perplexity (lower is
	// better, 1 is perfect).
	Perplexity float64
	// PerplexityByRank is the per-position perplexity.
	PerplexityByRank []float64
	Sessions         int
}

// perplexityAccum holds the running per-rank log2 sums of a perplexity
// computation, so evaluation folds into a single pass over the log.
type perplexityAccum struct {
	sum, cnt []float64
	scratch  []float64
}

func newPerplexityAccum(n int) *perplexityAccum {
	return &perplexityAccum{sum: make([]float64, n), cnt: make([]float64, n)}
}

// add scores one session through the model, reusing the accumulator's
// scratch buffer.
func (a *perplexityAccum) add(m Model, s Session) {
	probs := m.ClickProbsInto(s, a.scratch)
	a.scratch = probs
	for i, c := range s.Clicks {
		q := clampProb(probs[i])
		if c {
			a.sum[i] += math.Log2(q)
		} else {
			a.sum[i] += math.Log2(1 - q)
		}
		a.cnt[i]++
	}
}

// finish folds the running sums into the overall and per-rank
// perplexities.
func (a *perplexityAccum) finish() (overall float64, byRank []float64) {
	byRank = make([]float64, len(a.sum))
	var tot, totCnt float64
	for i := range a.sum {
		if a.cnt[i] > 0 {
			byRank[i] = math.Exp2(-a.sum[i] / a.cnt[i])
		}
		tot += a.sum[i]
		totCnt += a.cnt[i]
	}
	if totCnt > 0 {
		overall = math.Exp2(-tot / totCnt)
	}
	return overall, byRank
}

// Evaluate fits nothing; it scores an already-fitted model on sessions.
// Log-likelihood and perplexity are folded into one pass over the log
// with a reused scoring buffer. Perplexity is that of the model's
// marginal click probabilities:
//
//	p_i = 2^{ -1/N · Σ ( c log2 q + (1-c) log2(1-q) ) }
func Evaluate(m Model, sessions []Session) Evaluation {
	ev := Evaluation{Model: m.Name(), Sessions: len(sessions)}
	n := maxPositions(sessions)
	if n == 0 {
		return ev
	}
	acc := newPerplexityAccum(n)
	ll := 0.0
	for _, s := range sessions {
		ll += m.SessionLogLikelihood(s)
		acc.add(m, s)
	}
	ev.LogLikelihood = ll / float64(len(sessions))
	ev.Perplexity, ev.PerplexityByRank = acc.finish()
	return ev
}
