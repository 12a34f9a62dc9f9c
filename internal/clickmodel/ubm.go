package clickmodel

// UBM is the user browsing model of Dupret & Piwowarski. Examination of
// position i depends on the position itself and on the position of the
// most recent preceding click:
//
//	P(E_i = 1 | last click at j) = gamma(i, j)
//	P(C_i = 1 | E_i = 1)         = alpha(q, d_i)
//
// Unlike the cascade family, a skip does not force continued examination:
// the user may abandon the list and reformulate. Because the conditioning
// click history is fully observed, EM reduces to PBM-style posterior
// updates with the gamma cell selected by the session's click pattern.
// The fit runs over the compiled log's flat triangular layout; the
// previous-click columns are precomputed at Compile. It keeps the log's
// pair table and one attractiveness per pair.
type UBM struct {
	// Gamma[i][j] is P(E=1) at position i+1 when the previous click was
	// at position j (1-based), with j = 0 meaning no previous click.
	// Valid cells have j <= i. After a fit the rows share one backing
	// array (they remain disjoint slices).
	Gamma [][]float64

	Iterations int
	PriorAlpha float64
	// Workers caps the parallel E-step fan-out (0 = GOMAXPROCS).
	Workers int

	pairs  *pairTable // the fitted log's (query, doc) pairs
	alphas []float64  // pair ID -> attractiveness
}

// NewUBM returns a UBM with default hyper-parameters.
func NewUBM() *UBM { return &UBM{Iterations: 20, PriorAlpha: 0.5} }

// Name implements Model.
func (m *UBM) Name() string { return "UBM" }

func (m *UBM) defaults() {
	if m.Iterations <= 0 {
		m.Iterations = 20
	}
	if m.PriorAlpha <= 0 || m.PriorAlpha >= 1 {
		m.PriorAlpha = 0.5
	}
}

func (m *UBM) gamma(i, j int) float64 {
	if i < len(m.Gamma) && j < len(m.Gamma[i]) {
		return m.Gamma[i][j]
	}
	return 0.5
}

// FitLog runs EM over a compiled log. The triangular gamma table is
// kept flat (cell (i, j) at tri(i)+j); its denominators — impressions
// per (position, previous-click) cell — are log constants cached on
// the CompiledLog, as are the per-pair alpha denominators. The alphas
// are fitted in place, over the log's pair table.
func (m *UBM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	m.defaults()
	n := c.maxPos
	nPair := c.NumPairs()
	nCell := tri(n)
	workers := emWorkers(m.Workers, c.NumSessions())
	cellCount := c.ubmCellCounts()

	m.pairs = c.tab
	m.alphas = filled(m.alphas, nPair, m.PriorAlpha)
	alpha := m.alphas
	fs, buf := getScratch(nCell + workers*(nCell+nPair))
	defer putScratch(fs)
	sl := slab{buf}
	gAll := sl.take(workers * nCell)
	aAll := sl.take(workers * nPair)
	// gamma, which every worker reads per impression, goes last: at the
	// front it shared a cache line with worker 0's position-0 cells,
	// written per session, and the bench fit ran 40 % slower with two
	// workers on a 2-vCPU Xeon.
	gamma := sl.take(nCell)
	for i := 0; i < n; i++ {
		row := gamma[tri(i) : tri(i)+i+1]
		for j := range row {
			row[j] = 1.0 / (1.0 + float64(i-j))
		}
	}

	nSess := c.NumSessions()
	for iter := 0; iter < m.Iterations; iter++ {
		if iter > 0 {
			clear(gAll)
			clear(aAll)
		}
		if workers == 1 {
			ubmEStep(c, gamma, alpha, gAll, aAll, 0, nSess)
		} else {
			forEachShard(workers, nSess, func(w, lo, hi int) {
				ubmEStep(c, gamma, alpha,
					gAll[w*nCell:(w+1)*nCell], aAll[w*nPair:(w+1)*nPair], lo, hi)
			})
		}
		gNum := mergeShards(gAll, nCell, workers)
		aNum := mergeShards(aAll, nPair, workers)

		for t := 0; t < nCell; t++ {
			if cellCount[t] > 0 {
				gamma[t] = clampProb(gNum[t] / cellCount[t])
			}
		}
		for p := 0; p < nPair; p++ {
			if c.pairCount[p] > 0 {
				alpha[p] = clampProb(aNum[p] / c.pairCount[p])
			}
		}
	}

	// Materialize the exported triangular table from one backing copy,
	// reusing the previous fit's rows when they have the right shape.
	if gammaShapeOK(m.Gamma, n) {
		for i := 0; i < n; i++ {
			copy(m.Gamma[i], gamma[tri(i):tri(i)+i+1])
		}
	} else {
		flat := make([]float64, nCell)
		copy(flat, gamma)
		m.Gamma = make([][]float64, n)
		for i := 0; i < n; i++ {
			m.Gamma[i] = flat[tri(i) : tri(i)+i+1 : tri(i)+i+1]
		}
	}
	return nil
}

// gammaShapeOK reports whether an existing triangular table has
// exactly n rows of lengths 1..n and can be refilled in place.
func gammaShapeOK(g [][]float64, n int) bool {
	if len(g) != n {
		return false
	}
	for i := range g {
		if len(g[i]) != i+1 {
			return false
		}
	}
	return true
}

// ubmEStep accumulates posteriors for sessions [lo, hi) into one
// worker's gNum (triangular cells) and aNum (pairs) regions.
func ubmEStep(c *CompiledLog, gamma, alpha, gNum, aNum []float64, lo, hi int) {
	for s := lo; s < hi; s++ {
		b, e := c.off[s], c.off[s+1]
		for i := b; i < e; i++ {
			pos := int(i - b)
			cell := tri(pos) + int(c.prev[i])
			p := c.pair[i]
			a := alpha[p]
			g := gamma[cell]
			if c.click[i] {
				gNum[cell]++
				aNum[p]++
			} else {
				den := clampProb(1 - a*g)
				gNum[cell] += g * (1 - a) / den
				aNum[p] += a * (1 - g) / den
			}
		}
	}
}

// alpha returns the attractiveness of doc d under the query whose doc
// map is row (pairTable.row): one probe.
func (m *UBM) alpha(row map[string]int32, d string) float64 {
	if p, ok := row[d]; ok {
		return m.alphas[p]
	}
	return m.PriorAlpha
}

// ClickProbsInto implements Model. The marginal click probability
// requires integrating over the unobserved click history; a forward
// recursion over the "position of the last click so far" does this
// exactly in O(n²). For typical SERP depths the recursion's state lives
// on the stack, so scoring into a reused buffer is allocation-free.
func (m *UBM) ClickProbsInto(s Session, buf []float64) []float64 {
	n := len(s.Docs)
	out := resizeProbs(buf, n)
	var stack [maxStackPositions + 1]float64
	pLast := stack[:]
	if n+1 > len(stack) {
		pLast = make([]float64, n+1)
	}
	// pLast[j]: probability that after processing positions < i, the most
	// recent click was at position j (1-based), j = 0 for none. The rest
	// of pLast is zero already: fresh stack array or make().
	pLast[0] = 1
	row := m.pairs.row(s.Query)
	for i, d := range s.Docs {
		a := m.alpha(row, d)
		var pc float64
		for j := 0; j <= i; j++ {
			pc += pLast[j] * a * m.gamma(i, j)
		}
		out[i] = pc
		for j := 0; j <= i; j++ {
			pLast[j] *= 1 - a*m.gamma(i, j)
		}
		pLast[i+1] = pc
	}
	return out
}

// ExaminationProbs implements Examiner, marginalising over click
// histories with the same forward recursion.
func (m *UBM) ExaminationProbs(s Session) []float64 {
	n := len(s.Docs)
	out := make([]float64, n)
	pLast := make([]float64, n+1)
	pLast[0] = 1
	row := m.pairs.row(s.Query)
	for i, d := range s.Docs {
		a := m.alpha(row, d)
		var pe, pc float64
		for j := 0; j <= i; j++ {
			g := m.gamma(i, j)
			pe += pLast[j] * g
			pc += pLast[j] * a * g
		}
		out[i] = pe
		for j := 0; j <= i; j++ {
			pLast[j] *= 1 - a*m.gamma(i, j)
		}
		pLast[i+1] = pc
	}
	return out
}

// SessionLogLikelihood implements Model. Conditioned on the observed
// click history the session likelihood factorises position by position.
func (m *UBM) SessionLogLikelihood(s Session) float64 {
	ll := 0.0
	prev := 0
	row := m.pairs.row(s.Query)
	for i, d := range s.Docs {
		p := m.alpha(row, d) * m.gamma(i, prev)
		ll += bernoulliLL(p, s.Clicks[i])
		if s.Clicks[i] {
			prev = i + 1
		}
	}
	return ll
}
