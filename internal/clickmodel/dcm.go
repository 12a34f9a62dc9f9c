package clickmodel

// DCM is the dependent click model of Guo et al., the multi-click
// generalisation of the cascade model:
//
//	P(E_i = 1 | E_{i-1} = 1, C_{i-1} = 1) = lambda_{i-1}
//	P(E_i = 1 | E_{i-1} = 1, C_{i-1} = 0) = 1
//	P(C_i = 1 | E_i = 1)                  = alpha(q, d_i)
//
// After a click at position i the user continues with the position effect
// lambda_i; after a skip she always continues. Estimation follows the
// original paper's maximum-likelihood recipe: positions up to the last
// click are certainly examined; lambda_i is one minus the fraction of
// clicks at position i that were the session's last click; with no
// click the whole list counts as examined (the user never stops after a
// skip). The counts are a Stats' and the ratios are FitStats'. The
// alphas are fitted over a pair table of the pairs examined at or above
// a last click, one per pair ID.
type DCM struct {
	Lambda []float64 // Lambda[i]: continue probability after a click at position i+1

	PriorAlpha         float64
	LaplaceA, LaplaceB float64

	pairs  *pairTable
	alphas []float64
}

// NewDCM returns a DCM with default smoothing.
func NewDCM() *DCM { return &DCM{PriorAlpha: 0.5, LaplaceA: 1, LaplaceB: 2} }

// Name implements Model.
func (m *DCM) Name() string { return "DCM" }

func (m *DCM) defaults() {
	if m.PriorAlpha <= 0 || m.PriorAlpha >= 1 {
		m.PriorAlpha = 0.5
	}
	if m.LaplaceA < 0 || m.LaplaceB < 0 {
		m.LaplaceA, m.LaplaceB = 1, 2
	}
}

// FitLog implements Model: the log's statistics, then FitStats.
func (m *DCM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	fs, st := logStats(c)
	defer putScratch(fs)
	return m.FitStats(&st)
}

// alpha is doc d's attractiveness under the query whose doc map is row.
func (m *DCM) alpha(row map[string]int32, d string) float64 {
	return pairVal(row, m.alphas, d, m.PriorAlpha)
}

func (m *DCM) lambda(i int) float64 {
	if i < len(m.Lambda) {
		return m.Lambda[i]
	}
	return 0.5
}

// step is DCM's chainWalk step under query q: E_{i+1} = E_i and
// (clicked -> lambda_i, skipped -> 1).
func (m *DCM) step(q string) chainStep {
	row := m.pairs.row(q)
	return func(i int, d string) (float64, float64) {
		a := m.alpha(row, d)
		return a, a*m.lambda(i) + (1 - a)
	}
}

// ClickProbsInto implements Model.
func (m *DCM) ClickProbsInto(s Session, buf []float64) []float64 {
	return chainWalk(s.Docs, resizeProbs(buf, len(s.Docs)), false, m.step(s.Query))
}

// ExaminationProbs implements Examiner.
func (m *DCM) ExaminationProbs(s Session) []float64 {
	return chainWalk(s.Docs, make([]float64, len(s.Docs)), true, m.step(s.Query))
}

// SessionLogLikelihood implements Model. Given the click vector, positions
// up to the last click are examined with certainty; the tail after the
// last click marginalises over where the user abandoned.
func (m *DCM) SessionLogLikelihood(s Session) float64 {
	row := m.pairs.row(s.Query)
	last := s.LastClick()
	ll := 0.0
	for i := 0; i <= last; i++ {
		a := m.alpha(row, s.Docs[i])
		if s.Clicks[i] {
			ll += log(a)
			if i < last {
				// Continued after this click.
				ll += log(m.lambda(i))
			}
		} else {
			ll += log(1 - a)
		}
	}
	// Tail: after the last click (or from the top, with no clicks) the
	// user examines onwards and must not click. If the last position
	// clicked closed the session, the user either stopped (1-lambda) or
	// continued and skipped everything; marginalise the stop decision.
	tail := 1.0 // probability of observing all-skips after `last`
	for i := len(s.Docs) - 1; i > last; i-- {
		a := m.alpha(row, s.Docs[i])
		tail = (1 - a) * tail
	}
	if last >= 0 {
		ll += log((1 - m.lambda(last)) + m.lambda(last)*tail)
	} else {
		ll += log(tail)
	}
	return ll
}
