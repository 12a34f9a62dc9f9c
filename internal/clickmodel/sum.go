package clickmodel

// SUM is a session utility model in the spirit of Dupret & Liao (cited
// in the paper's Section II-D): a post-click model that estimates the
// intrinsic (post-click) relevance of documents from the *sequence of
// clicked results in a session*, without modelling examination or
// pre-click attractiveness.
//
// The generative story: after each click the user accumulates the
// clicked document's intrinsic utility u(q,d) ∈ (0,1) and ends the
// session with probability equal to the accumulated utility's
// complement-product — i.e. the session continues past a click with
// probability Π(1-u) over clicked docs so far. Documents that satisfy
// users terminate sessions early and earn high utility; estimation is
// by EM over the session-termination evidence. This reproduction keeps
// the model's defining characteristic — only clicked sequences matter —
// and is evaluated only through SessionLogLikelihood on click sequences
// (ClickProbsInto falls back to per-position click rates, as SUM does not
// model examination).
type SUM struct {
	Iterations int
	PriorU     float64

	// pairs holds the clicked (query, doc) pairs of the fitted log and
	// utility each one's intrinsic post-click relevance, by pair ID.
	pairs   *pairTable
	utility []float64
	// baseCTR is the per-position empirical click rate used for the
	// marginal ClickProbsInto fallback.
	baseCTR []float64
}

// NewSUM returns a SUM with default hyper-parameters.
func NewSUM() *SUM { return &SUM{Iterations: 20, PriorU: 0.3} }

// Name implements Model.
func (m *SUM) Name() string { return "SUM" }

func (m *SUM) defaults() {
	if m.Iterations <= 0 {
		m.Iterations = 20
	}
	if m.PriorU <= 0 || m.PriorU >= 1 {
		m.PriorU = 0.3
	}
}

// u is doc d's utility under the query whose doc map is row.
func (m *SUM) u(row map[string]int32, d string) float64 {
	return pairVal(row, m.utility, d, m.PriorU)
}

// clickedDocs returns the clicked documents of a session in order.
func clickedDocs(s Session) []string {
	var out []string
	for i, c := range s.Clicks {
		if c {
			out = append(out, s.Docs[i])
		}
	}
	return out
}

// FitLog implements Model over the compiled log's source sessions:
// SUM reads clicked sequences, not the interned impressions. For every
// session, each clicked document except the last is evidence of
// non-satisfaction (the user clicked again); the last clicked
// document's satisfaction is latent (the user may have stopped
// satisfied, or continued and found nothing) and receives a posterior
// weight in the E-step. The clicked pairs are interned in a pair table
// of the model's own, and the statistics accumulate by pair ID.
func (m *SUM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	sessions := c.Sessions()
	m.defaults()
	m.baseCTR = MeanCTRByPosition(sessions)
	m.pairs = newPairTable()
	for _, s := range sessions {
		for _, d := range clickedDocs(s) {
			r := m.pairs.query(s.Query, 0)
			if _, ok := r.docs[d]; !ok {
				m.pairs.add(r, d)
			}
		}
	}
	nPair := len(m.pairs.pairs)
	m.utility = filled(m.utility, nPair, m.PriorU)
	fs, buf := getScratch(2 * nPair)
	defer putScratch(fs)
	num, den := buf[:nPair], buf[nPair:]
	for iter := 0; iter < m.Iterations; iter++ {
		clear(buf)
		for _, s := range sessions {
			clicked := clickedDocs(s)
			row := m.pairs.row(s.Query)
			for i, d := range clicked {
				p := row[d]
				den[p]++
				if i == len(clicked)-1 {
					// Last click: P(satisfied | session ended here).
					// Ending evidence: no clicks followed. The session
					// ends either satisfied (u) or unsatisfied but with
					// no further attractive results (approximated by
					// the residual 1-u mass ending anyway with the
					// base rate of clickless continuation).
					u := m.utility[p]
					cont := (1 - u) * m.tailNoClickProb(s)
					num[p] += u / (u + cont)
				}
			}
		}
		for p := range m.utility {
			if den[p] > 0 {
				m.utility[p] = clampProb(num[p] / den[p])
			}
		}
	}
	return nil
}

// tailNoClickProb approximates the probability that a continuing user
// records no further click, from the positions after the last click.
func (m *SUM) tailNoClickProb(s Session) float64 {
	last := s.LastClick()
	p := 1.0
	for i := last + 1; i < len(s.Docs) && i < len(m.baseCTR); i++ {
		p *= 1 - m.baseCTR[i]
	}
	return clampProb(p)
}

// ClickProbsInto implements Model with the per-position empirical rate:
// SUM does not model pre-click behaviour, so its marginal prediction is
// the position baseline.
func (m *SUM) ClickProbsInto(s Session, buf []float64) []float64 {
	out := resizeProbs(buf, len(s.Docs))
	for i := range out {
		if i < len(m.baseCTR) {
			out[i] = m.baseCTR[i]
		} else {
			out[i] = 0.05
		}
	}
	return out
}

// SessionLogLikelihood implements Model over the clicked sequence: each
// non-final click contributes log(1-u) (the user was not satisfied and
// continued); the final click contributes the satisfied/abandoned
// mixture.
func (m *SUM) SessionLogLikelihood(s Session) float64 {
	last := s.LastClick()
	if last < 0 {
		return log(m.tailNoClickProb(s))
	}
	ll := 0.0
	row := m.pairs.row(s.Query)
	for i, d := range s.Docs[:last+1] {
		if !s.Clicks[i] {
			continue
		}
		u := m.u(row, d)
		if i < last {
			ll += log(1 - u)
		} else {
			ll += log(u + (1-u)*m.tailNoClickProb(s))
		}
	}
	return ll
}

var _ Model = (*SUM)(nil)
