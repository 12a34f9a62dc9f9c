package clickmodel

// Cascade is the cascade model of Craswell et al.: the user scans results
// strictly top-to-bottom, clicks the first attractive result, and stops.
//
//	P(E_1 = 1) = 1
//	P(E_i = 1 | E_{i-1} = 1) = 1 - C_{i-1}
//	P(C_i = 1 | E_i = 1)     = alpha(q, d_i)
//
// The model permits at most one click per session; its likelihood is zero
// for multi-click sessions (handled with the probability floor). Maximum
// likelihood estimation is closed-form: a document's attractiveness is the
// fraction of its *examined* impressions that were clicked, where the
// examined positions of a session are those up to and including the first
// click (all positions, if there is no click). The counts are a Stats'
// (examFirst, clickFirst) and the ratio is FitStats'. The alphas are
// fitted over a pair table of the pairs examined at or above a first
// click, one per pair ID.
type Cascade struct {
	PriorAlpha float64 // attractiveness for unseen (query, doc); default 0.5

	// LaplaceA and LaplaceB are the add-a/add-b smoothing counts for the
	// click/examination ratio (default 1 and 2: a Beta(1,1) prior mean).
	LaplaceA, LaplaceB float64

	pairs  *pairTable
	alphas []float64
}

// NewCascade returns a Cascade with default smoothing.
func NewCascade() *Cascade { return &Cascade{PriorAlpha: 0.5, LaplaceA: 1, LaplaceB: 2} }

// Name implements Model.
func (m *Cascade) Name() string { return "Cascade" }

func (m *Cascade) defaults() {
	if m.PriorAlpha <= 0 || m.PriorAlpha >= 1 {
		m.PriorAlpha = 0.5
	}
	if m.LaplaceA < 0 || m.LaplaceB < 0 {
		m.LaplaceA, m.LaplaceB = 1, 2
	}
}

// FitLog implements Model: the log's statistics, then FitStats.
func (m *Cascade) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	fs, st := logStats(c)
	defer putScratch(fs)
	return m.FitStats(&st)
}

// alpha is doc d's attractiveness under the query whose doc map is row.
func (m *Cascade) alpha(row map[string]int32, d string) float64 {
	return pairVal(row, m.alphas, d, m.PriorAlpha)
}

// step is Cascade's chainWalk step under query q: the scan goes on past
// every result it does not click.
func (m *Cascade) step(q string) chainStep {
	row := m.pairs.row(q)
	return func(_ int, d string) (float64, float64) {
		a := m.alpha(row, d)
		return a, 1 - a
	}
}

// ClickProbsInto implements Model: P(C_i=1) = alpha_i * prod_{j<i} (1-alpha_j).
func (m *Cascade) ClickProbsInto(s Session, buf []float64) []float64 {
	return chainWalk(s.Docs, resizeProbs(buf, len(s.Docs)), false, m.step(s.Query))
}

// ExaminationProbs implements Examiner: the marginal probability the scan
// reaches position i.
func (m *Cascade) ExaminationProbs(s Session) []float64 {
	return chainWalk(s.Docs, make([]float64, len(s.Docs)), true, m.step(s.Query))
}

// SessionLogLikelihood implements Model. Sessions with more than one click
// are impossible under the cascade hypothesis and score the floor
// probability per extra click.
func (m *Cascade) SessionLogLikelihood(s Session) float64 {
	row := m.pairs.row(s.Query)
	ll := 0.0
	stopped := false
	for i, d := range s.Docs {
		a := m.alpha(row, d)
		switch {
		case stopped:
			// Anything after the first click is unexamined: a click here
			// has probability 0 (floored), a skip probability 1.
			if s.Clicks[i] {
				ll += log(0)
			}
		case s.Clicks[i]:
			ll += log(a)
			stopped = true
		default:
			ll += log(1 - a)
		}
	}
	return ll
}
