package clickmodel

// PBM is the position-based model: the examination hypothesis of
// Richardson et al. formalised by Craswell et al.
//
//	P(C_i = 1) = alpha(q, d_i) * gamma(i)
//
// Examination depends only on the position, independent of every other
// result (Section II-A of the paper). Parameters are estimated with EM
// over the compiled (interned, dense) form of the log; the fit keeps
// the log's pair table and one attractiveness — the probability of a
// click given examination — per pair.
type PBM struct {
	// Gamma[i] is the probability that position i+1 is examined.
	Gamma []float64

	// Iterations is the number of EM rounds (default 20).
	Iterations int
	// PriorAlpha initialises unseen attractiveness values (default 0.5).
	PriorAlpha float64
	// Workers caps the parallel E-step fan-out (0 = GOMAXPROCS).
	Workers int

	pairs  *pairTable // the fitted log's (query, doc) pairs
	alphas []float64  // pair ID -> attractiveness
}

// NewPBM returns a PBM with default hyper-parameters.
func NewPBM() *PBM { return &PBM{Iterations: 20, PriorAlpha: 0.5} }

// Name implements Model.
func (m *PBM) Name() string { return "PBM" }

func (m *PBM) defaults() {
	if m.Iterations <= 0 {
		m.Iterations = 20
	}
	if m.PriorAlpha <= 0 || m.PriorAlpha >= 1 {
		m.PriorAlpha = 0.5
	}
}

// FitLog runs EM over a compiled log. The E-step computes, for every
// impression, the posterior probability that the result was examined
// and that it was attractive given the observed click; the M-step
// averages those posteriors into the per-position gammas and per-pair
// alphas. Impressions are sharded over Workers goroutines with
// per-worker accumulators merged before the M-step; the posterior
// denominators (impressions per position and per pair) are log
// constants precomputed at Compile. The alphas are fitted in place,
// over the log's pair table.
func (m *PBM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	m.defaults()
	n := c.maxPos
	nPair := c.NumPairs()
	workers := emWorkers(m.Workers, c.NumSessions())

	m.Gamma = reuseFloats(m.Gamma, n)
	for i := range m.Gamma {
		// Initialise with a gentle decay so EM starts from a plausible,
		// symmetric-breaking point.
		m.Gamma[i] = 1.0 / (1.0 + float64(i))
	}

	m.pairs = c.tab
	m.alphas = filled(m.alphas, nPair, m.PriorAlpha)
	alpha := m.alphas
	fs, buf := getScratch(workers * (n + nPair))
	defer putScratch(fs)
	sl := slab{buf}
	gAll := sl.take(workers * n)
	aAll := sl.take(workers * nPair)

	nSess := c.NumSessions()
	for iter := 0; iter < m.Iterations; iter++ {
		if iter > 0 {
			clear(gAll)
			clear(aAll)
		}
		if workers == 1 {
			pbmEStep(c, m.Gamma, alpha, gAll, aAll, 0, nSess)
		} else {
			forEachShard(workers, nSess, func(w, lo, hi int) {
				pbmEStep(c, m.Gamma, alpha,
					gAll[w*n:(w+1)*n], aAll[w*nPair:(w+1)*nPair], lo, hi)
			})
		}
		gNum := mergeShards(gAll, n, workers)
		aNum := mergeShards(aAll, nPair, workers)

		for i := 0; i < n; i++ {
			if c.posCount[i] > 0 {
				m.Gamma[i] = clampProb(gNum[i] / c.posCount[i])
			}
		}
		for p := 0; p < nPair; p++ {
			if c.pairCount[p] > 0 {
				alpha[p] = clampProb(aNum[p] / c.pairCount[p])
			}
		}
	}
	return nil
}

// pbmEStep accumulates the examination/attraction posteriors of the
// sessions [lo, hi) into one worker's gNum/aNum regions.
func pbmEStep(c *CompiledLog, gamma, alpha, gNum, aNum []float64, lo, hi int) {
	for s := lo; s < hi; s++ {
		b, e := c.off[s], c.off[s+1]
		for i := b; i < e; i++ {
			pos := int(i - b)
			p := c.pair[i]
			a := alpha[p]
			g := gamma[pos]
			if c.click[i] {
				// A click implies examination and attraction.
				gNum[pos]++
				aNum[p]++
			} else {
				// P(E=1|C=0) and P(A=1|C=0).
				den := clampProb(1 - a*g)
				gNum[pos] += g * (1 - a) / den
				aNum[p] += a * (1 - g) / den
			}
		}
	}
}

// alpha is doc d's attractiveness under the query whose doc map is row.
func (m *PBM) alpha(row map[string]int32, d string) float64 {
	return pairVal(row, m.alphas, d, m.PriorAlpha)
}

// ClickProbsInto implements Model, reusing buf when it has the
// capacity.
func (m *PBM) ClickProbsInto(s Session, buf []float64) []float64 {
	out := resizeProbs(buf, len(s.Docs))
	row := m.pairs.row(s.Query)
	for i, d := range s.Docs {
		g := 0.0
		if i < len(m.Gamma) {
			g = m.Gamma[i]
		}
		out[i] = m.alpha(row, d) * g
	}
	return out
}

// ExaminationProbs implements Examiner: under PBM examination is the
// per-position gamma, independent of the documents.
func (m *PBM) ExaminationProbs(s Session) []float64 {
	out := make([]float64, len(s.Docs))
	for i := range out {
		if i < len(m.Gamma) {
			out[i] = m.Gamma[i]
		}
	}
	return out
}

// SessionLogLikelihood implements Model. Under PBM positions are
// independent, so the session likelihood factorises.
func (m *PBM) SessionLogLikelihood(s Session) float64 {
	ll := 0.0
	row := m.pairs.row(s.Query)
	for i, d := range s.Docs {
		g := 0.0
		if i < len(m.Gamma) {
			g = m.Gamma[i]
		}
		ll += bernoulliLL(m.alpha(row, d)*g, s.Clicks[i])
	}
	return ll
}
