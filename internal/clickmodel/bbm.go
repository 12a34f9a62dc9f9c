package clickmodel

import "math"

// BBM is the Bayesian browsing model of Liu, Guo & Faloutsos. Its browsing
// layer is exactly UBM's — examination depends on the position and the
// preceding click position — but relevance is treated as a random variable
// with a posterior distribution rather than a point estimate.
//
// The implementation follows the BBM paper's key observation: for a fixed
// browsing layer the relevance posterior of a (query, doc) has the form
//
//	p(R | log) ∝ R^{#clicks} · Π_k (1 - gamma_k·R)^{n_k}
//
// where n_k counts the non-clicked impressions observed under examination
// probability gamma_k. Only those compact counts are stored (the "petabyte
// scale" trick); the posterior is evaluated on a grid on demand. The
// counts live in dense pair-ID-indexed arrays keyed by the compiled
// log's triangular (position, previous-click) cells — for very deep
// result lists the per-pair cell axis falls back to sparse maps.
//
// In this reproduction the gammas are themselves estimated by running the
// UBM EM on the same log first, which the paper treats as equivalent for
// browsing purposes (Section II-B: "UBM and BBM can be considered
// equivalent" for the browsing model).
type BBM struct {
	Browse *UBM // fitted browsing layer

	// GridSize is the number of grid points on [0,1] for posterior
	// evaluation (default 51).
	GridSize int
	// Workers caps the browsing-layer fit's parallel E-step fan-out
	// (0 = GOMAXPROCS); the single counting pass itself is serial.
	Workers int

	pairs     *pairTable          // the fitted log's (query, doc) pairs
	clicks    []float64           // pair ID -> click count
	nCell     int                 // triangular cells per pair (dense layout)
	cellGamma []float64           // cell -> fitted browsing gamma
	nonClick  []float64           // pair*nCell + cell -> skip count (dense)
	nonClickS []map[int32]float64 // sparse fallback for deep lists
}

// maxDenseBBMCells bounds the dense (pairs × cells) skip-count matrix:
// beyond ~45 positions the triangular cell axis goes sparse instead.
const maxDenseBBMCells = 1024

// NewBBM returns a BBM with default hyper-parameters and an unfitted
// browsing layer.
func NewBBM() *BBM { return &BBM{Browse: NewUBM(), GridSize: 51} }

// Name implements Model.
func (m *BBM) Name() string { return "BBM" }

// FitLog fits from a compiled log: the UBM browsing layer first, then
// one counting pass over the impressions into dense pair-indexed
// arrays.
func (m *BBM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	if m.GridSize < minGridSize {
		m.GridSize = 51
	}
	if m.Browse == nil {
		m.Browse = NewUBM()
	}
	if m.Browse.Workers == 0 {
		m.Browse.Workers = m.Workers
	}
	if err := m.Browse.FitLog(c); err != nil {
		return err
	}

	nPair := c.NumPairs()
	nCell := tri(c.maxPos)
	m.pairs = c.tab
	m.clicks = reuseFloats(m.clicks, nPair)
	clear(m.clicks)
	m.cellGamma = reuseFloats(m.cellGamma, nCell)
	for i := 0; i < c.maxPos; i++ {
		for j := 0; j <= i; j++ {
			m.cellGamma[tri(i)+j] = m.Browse.gamma(i, j)
		}
	}

	if nCell <= maxDenseBBMCells {
		m.nCell = nCell
		m.nonClick = reuseFloats(m.nonClick, nPair*nCell)
		clear(m.nonClick)
		m.nonClickS = nil
	} else {
		m.nCell = 0
		m.nonClick = nil
		m.nonClickS = make([]map[int32]float64, nPair)
	}

	for s := 0; s < c.NumSessions(); s++ {
		b, e := c.off[s], c.off[s+1]
		for i := b; i < e; i++ {
			p := c.pair[i]
			if c.click[i] {
				m.clicks[p]++
				continue
			}
			cell := tri(int(i-b)) + int(c.prev[i])
			if m.nonClick != nil {
				m.nonClick[int(p)*m.nCell+cell]++
			} else {
				inner := m.nonClickS[p]
				if inner == nil {
					inner = make(map[int32]float64)
					m.nonClickS[p] = inner
				}
				inner[int32(cell)]++
			}
		}
	}
	return nil
}

// bbmCell is one observed (gamma cell, skip count) sufficient statistic.
type bbmCell struct {
	cell int32
	n    float64
}

// posteriorMeanID evaluates E[R | log] on the grid for a dense pair ID.
func (m *BBM) posteriorMeanID(p int32) float64 {
	c := m.clicks[p]
	// Collect the nonzero skip counts once so the grid loop touches
	// only observed cells, not the whole (mostly zero) dense row.
	var nzStack [48]bbmCell
	nz := nzStack[:0]
	if m.nonClick != nil {
		for cell, n := range m.nonClick[int(p)*m.nCell : (int(p)+1)*m.nCell] {
			if n > 0 {
				nz = append(nz, bbmCell{int32(cell), n})
			}
		}
	} else {
		for cell, n := range m.nonClickS[p] {
			nz = append(nz, bbmCell{cell, n})
		}
	}
	if c == 0 && len(nz) == 0 {
		return 0.5
	}
	// Evaluate log-weights first and normalise by their maximum so the
	// posterior does not underflow on documents with many impressions.
	step := 1.0 / float64(m.GridSize-1)
	var num, den, maxLW float64
	maxLW = math.Inf(-1)
	var lwStack [64]float64 // holds the default 51-point grid
	lws := lwStack[:]
	if m.GridSize > len(lws) {
		lws = make([]float64, m.GridSize)
	}
	lws = lws[:m.GridSize]
	for i := range lws {
		r := float64(i) * step
		lw := 0.0
		if c > 0 {
			lw += c * log(r)
		}
		for _, e := range nz {
			lw += e.n * log(1-m.cellGamma[e.cell]*r)
		}
		lws[i] = lw
		if lw > maxLW {
			maxLW = lw
		}
	}
	for i, lw := range lws {
		w := math.Exp(lw - maxLW)
		num += w * float64(i) * step
		den += w
	}
	if !(den > 0) { // counts so large that every log-weight overflowed to -Inf
		return 0.5
	}
	return num / den
}

// PosteriorMean returns E[R | log] for the (query, doc) pair under a
// uniform prior, evaluated on the grid. Unseen pairs return the prior
// mean 0.5.
func (m *BBM) PosteriorMean(query, doc string) float64 {
	p, ok := m.pairs.find(query, doc)
	if !ok {
		return 0.5
	}
	return m.posteriorMeanID(p)
}

// ClickProbsInto implements Model using the UBM forward recursion with the
// posterior-mean relevance in place of a point-estimated alpha.
func (m *BBM) ClickProbsInto(s Session, buf []float64) []float64 {
	n := len(s.Docs)
	out := resizeProbs(buf, n)
	var stack [maxStackPositions + 1]float64
	pLast := stack[:]
	if n+1 > len(stack) {
		pLast = make([]float64, n+1)
	}
	pLast[0] = 1 // the rest of pLast is zero: fresh stack array or make()
	for i, d := range s.Docs {
		a := m.PosteriorMean(s.Query, d)
		var pc float64
		for j := 0; j <= i; j++ {
			pc += pLast[j] * a * m.Browse.gamma(i, j)
		}
		out[i] = pc
		for j := 0; j <= i; j++ {
			pLast[j] *= 1 - a*m.Browse.gamma(i, j)
		}
		pLast[i+1] = pc
	}
	return out
}

// SessionLogLikelihood implements Model.
func (m *BBM) SessionLogLikelihood(s Session) float64 {
	ll := 0.0
	prev := 0
	for i, d := range s.Docs {
		p := m.PosteriorMean(s.Query, d) * m.Browse.gamma(i, prev)
		ll += bernoulliLL(p, s.Clicks[i])
		if s.Clicks[i] {
			prev = i + 1
		}
	}
	return ll
}
