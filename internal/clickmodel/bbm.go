package clickmodel

import (
	"cmp"
	"math"
	"slices"
)

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
// probability gamma_k. Those compact counts are what the model fits and
// its artifact holds (the "petabyte scale" trick). They live in dense
// pair-ID-indexed arrays keyed by the compiled log's triangular
// (position, previous-click) cells — for very deep result lists the
// per-pair cell axis falls back to sparse maps.
//
// Each pair's posterior mean E[R | log] is evaluated on a grid once, at
// the end of FitLog and of a thaw (fillMeans), and stored: BBM scores
// and computes likelihoods through UBM's recursion (UBM.forward,
// UBM.logLikelihood) with one stored mean per pair in place of alpha,
// so no request evaluates a posterior. TestBBMScoresThroughUBM pins
// this by bits against a UBM holding those means.
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
	means     []float64           // pair ID -> posterior mean relevance (fillMeans)
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
// arrays, then every pair's posterior mean (fillMeans).
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
	m.fillMeans()
	return nil
}

// bbmCell is one observed (gamma cell, skip count) sufficient statistic.
type bbmCell struct {
	cell int32
	n    float64
}

// fillMeans stores every pair's posterior mean, evaluated from its
// counts on the grid: what scoring reads in place of UBM's alpha.
func (m *BBM) fillMeans() {
	m.means = reuseFloats(m.means, len(m.clicks))
	lws := make([]float64, m.GridSize)
	var nz []bbmCell
	for p := range m.means {
		// Collect the nonzero skip counts once so the grid loop touches
		// only observed cells, not the whole (mostly zero) dense row.
		nz = nz[:0]
		if m.nonClick != nil {
			for cell, n := range m.nonClick[p*m.nCell : (p+1)*m.nCell] {
				if n > 0 {
					nz = append(nz, bbmCell{int32(cell), n})
				}
			}
		} else {
			for cell, n := range m.nonClickS[p] {
				nz = append(nz, bbmCell{cell, n})
			}
			// Sum in ascending cell order, as the dense row does: a map
			// ranges in random order, and the sum's bits depend on it.
			slices.SortFunc(nz, func(a, b bbmCell) int { return cmp.Compare(a.cell, b.cell) })
		}
		m.means[p] = m.posteriorMean(m.clicks[p], nz, lws)
	}
}

// posteriorMean evaluates E[R | log] on the grid for a pair with c
// clicks and the skip counts nz, over lws (GridSize floats of scratch).
// A pair without evidence has the prior mean 0.5.
func (m *BBM) posteriorMean(c float64, nz []bbmCell, lws []float64) float64 {
	if c == 0 && len(nz) == 0 {
		return 0.5
	}
	// Evaluate log-weights first and normalise by their maximum so the
	// posterior does not underflow on documents with many impressions.
	step := 1.0 / float64(m.GridSize-1)
	var num, den float64
	maxLW := math.Inf(-1)
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

// ClickProbsInto implements Model: UBM's recursion with the stored
// posterior means in place of a point-estimated alpha.
func (m *BBM) ClickProbsInto(s Session, buf []float64) []float64 {
	out := resizeProbs(buf, len(s.Docs))
	m.Browse.forward(s, m.pairs.row(s.Query), m.means, 0.5, out, nil)
	return out
}

// SessionLogLikelihood implements Model, through UBM's likelihood with
// the stored posterior means.
func (m *BBM) SessionLogLikelihood(s Session) float64 {
	return m.Browse.logLikelihood(s, m.pairs.row(s.Query), m.means, 0.5)
}
