package clickmodel

// SDBN is the simplified dynamic Bayesian network model: DBN with the
// continuation parameter fixed at gamma = 1. Estimation is closed-form
// counting — one pass over the log into a Stats, then FitStats' ratios —
// which makes SDBN the workhorse for large logs. With gamma = 1 a
// session without clicks means every result was examined and skipped:
//
//	a(q,d) = clicks on d / impressions of d at positions <= last click
//	s(q,d) = sessions where d was the last click / sessions where d clicked
//
// The fit is a pair table of the (query, doc) pairs with an examination
// or a click and, per pair ID, a and s — the prior where a pair has no
// evidence for one of them, which is what an unseen pair scores.
type SDBN struct {
	PriorA, PriorS     float64
	LaplaceA, LaplaceB float64

	pairs     *pairTable
	attr, sat []float64
}

// NewSDBN returns an SDBN with default smoothing.
func NewSDBN() *SDBN {
	return &SDBN{PriorA: 0.5, PriorS: 0.5, LaplaceA: 1, LaplaceB: 2}
}

// Name implements Model.
func (m *SDBN) Name() string { return "SDBN" }

func (m *SDBN) defaults() {
	if m.PriorA <= 0 || m.PriorA >= 1 {
		m.PriorA = 0.5
	}
	if m.PriorS <= 0 || m.PriorS >= 1 {
		m.PriorS = 0.5
	}
	// Laplace counts of zero are a valid (unsmoothed MLE) choice and are
	// respected; only negative values are replaced.
	if m.LaplaceA < 0 || m.LaplaceB < 0 {
		m.LaplaceA, m.LaplaceB = 1, 2
	}
}

// FitLog implements Model: the log's statistics, then FitStats.
func (m *SDBN) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	fs, st := logStats(c)
	defer putScratch(fs)
	return m.FitStats(&st)
}

// as returns the attractiveness and satisfaction of doc d under the
// query whose doc map is row (pairTable.row): one probe.
func (m *SDBN) as(row map[string]int32, d string) (a, s float64) {
	if p, ok := row[d]; ok {
		return m.attr[p], m.sat[p]
	}
	return m.PriorA, m.PriorS
}

// step is SDBN's chainWalk step under query q: the user goes on after
// a skip, or after a click that did not satisfy.
func (m *SDBN) step(q string) chainStep {
	row := m.pairs.row(q)
	return func(_ int, d string) (float64, float64) {
		a, sat := m.as(row, d)
		return a, a*(1-sat) + (1 - a)
	}
}

// ClickProbsInto implements Model.
func (m *SDBN) ClickProbsInto(s Session, buf []float64) []float64 {
	return chainWalk(s.Docs, resizeProbs(buf, len(s.Docs)), false, m.step(s.Query))
}

// ExaminationProbs implements Examiner.
func (m *SDBN) ExaminationProbs(s Session) []float64 {
	return chainWalk(s.Docs, make([]float64, len(s.Docs)), true, m.step(s.Query))
}

// SessionLogLikelihood implements Model. With gamma = 1 the only
// marginalisation left is the satisfaction of the last click.
func (m *SDBN) SessionLogLikelihood(s Session) float64 {
	row := m.pairs.row(s.Query)
	last := s.LastClick()
	ll := 0.0
	for i := 0; i <= last; i++ {
		a, sat := m.as(row, s.Docs[i])
		if s.Clicks[i] {
			ll += log(a)
			if i < last {
				ll += log(1 - sat)
			}
		} else {
			ll += log(1 - a)
		}
	}
	// Tail: either satisfied at the last click, or continued and skipped
	// every remaining result (gamma = 1 leaves no stopping choice).
	tail := 1.0
	for i := len(s.Docs) - 1; i > last; i-- {
		a, _ := m.as(row, s.Docs[i])
		tail *= 1 - a
	}
	if last >= 0 {
		_, sat := m.as(row, s.Docs[last])
		ll += log(sat + (1-sat)*tail)
	} else {
		ll += log(tail)
	}
	return ll
}
