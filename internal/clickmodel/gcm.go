package clickmodel

// GCM is a generalised chain click model in the spirit of Zhu et al.'s
// general click model, which treats examination and relevance effects as
// random variables and subsumes the cascade family by suitable choices.
// The original uses probit-linked latent variables with Bayesian
// inference; this reproduction keeps the *conditional specification* —
// the distinguishing structure — with per-position continuation
// parameters estimated by EM over the compiled log:
//
//	P(E_{i+1} = 1 | E_i = 1, C_i = 0) = lambdaSkip[i]
//	P(E_{i+1} = 1 | E_i = 1, C_i = 1) = lambdaClick[i]
//	P(C_i = 1 | E_i = 1)              = r(q, d_i)
//
// Special cases: cascade (lambdaSkip = 1, lambdaClick = 0), DCM
// (lambdaSkip = 1, lambdaClick = lambda_i), DBN with fixed satisfaction,
// and CCM with position-tied alphas. The fit keeps the log's pair
// table and one relevance per pair.
type GCM struct {
	LambdaSkip  []float64
	LambdaClick []float64

	Iterations int
	PriorR     float64
	// Workers caps the parallel E-step fan-out (0 = GOMAXPROCS).
	Workers int

	pairs *pairTable // the fitted log's (query, doc) pairs
	rel   []float64  // pair ID -> relevance
}

// NewGCM returns a GCM with default hyper-parameters.
func NewGCM() *GCM { return &GCM{Iterations: 20, PriorR: 0.5} }

// Name implements Model.
func (m *GCM) Name() string { return "GCM" }

func (m *GCM) defaults() {
	if m.Iterations <= 0 {
		m.Iterations = 20
	}
	if m.PriorR <= 0 || m.PriorR >= 1 {
		m.PriorR = 0.5
	}
}

// r is doc d's relevance under the query whose doc map is row.
func (m *GCM) r(row map[string]int32, d string) float64 {
	return pairVal(row, m.rel, d, m.PriorR)
}

func (m *GCM) lSkip(i int) float64 {
	if i < len(m.LambdaSkip) {
		return m.LambdaSkip[i]
	}
	return 0.5
}

func (m *GCM) lClick(i int) float64 {
	if i < len(m.LambdaClick) {
		return m.LambdaClick[i]
	}
	return 0.5
}

// tailZ mirrors DBN.tailZ for GCM's transition structure: the
// likelihood of the all-skip tail past the last click (index last, -1
// for none), summed over the position where examination stopped. The
// compiled E-step inlines the same enumeration over worker scratch.
func (m *GCM) tailZ(s Session, row map[string]int32, last int) float64 {
	n := len(s.Docs)
	var z float64
	start := last
	cont0 := 1.0
	if last >= 0 {
		cont0 = m.lClick(last)
	} else {
		start = 0
	}
	cur := 1.0
	for t := start; t < n; t++ {
		switch {
		case last >= 0 && t == last:
			// No factors: the click itself is accounted upstream.
		case last >= 0 && t == last+1:
			cur *= cont0 * (1 - m.r(row, s.Docs[t]))
		case last < 0 && t == 0:
			cur *= 1 - m.r(row, s.Docs[t]) // E_1 = 1 always
		default:
			cur *= m.lSkip(t-1) * (1 - m.r(row, s.Docs[t]))
		}
		w := cur
		if t < n-1 {
			stop := 1 - m.lSkip(t)
			if last >= 0 && t == last {
				stop = 1 - cont0
			}
			w *= stop
		}
		z += w
	}
	if z <= 0 {
		z = probEps
	}
	return z
}

// gcmAccStride is one worker's accumulator layout:
// [rNum | rDen | skipNum | skipDen | clickNum | clickDen].
func gcmAccStride(nPair, n int) int { return 2*nPair + 4*n }

// FitLog runs EM over a compiled log, fitting the relevances in place
// over the log's pair table.
func (m *GCM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	m.defaults()
	n := c.maxPos
	nPair := c.NumPairs()
	stride := gcmAccStride(nPair, n)
	workers := emWorkers(m.Workers, c.NumSessions())

	m.LambdaSkip, m.LambdaClick = filled(m.LambdaSkip, n, 0.9), filled(m.LambdaClick, n, 0.6)

	m.pairs = c.tab
	m.rel = filled(m.rel, nPair, m.PriorR)
	rel := m.rel
	fs, buf := getScratch(workers * (stride + c.maxPos))
	defer putScratch(fs)
	sl := slab{buf}
	accAll := sl.take(workers * stride)
	tails := sl.take(workers * c.maxPos)

	nSess := c.NumSessions()
	for iter := 0; iter < m.Iterations; iter++ {
		if iter > 0 {
			clear(accAll)
		}
		if workers == 1 {
			gcmEStep(c, rel, m.LambdaSkip, m.LambdaClick, accAll[:stride], tails, 0, nSess)
		} else {
			forEachShard(workers, nSess, func(w, lo, hi int) {
				gcmEStep(c, rel, m.LambdaSkip, m.LambdaClick,
					accAll[w*stride:(w+1)*stride],
					tails[w*c.maxPos:(w+1)*c.maxPos], lo, hi)
			})
		}
		acc := mergeShards(accAll, stride, workers)
		rNum := acc[:nPair]
		rDen := acc[nPair : 2*nPair]
		skipNum := acc[2*nPair : 2*nPair+n]
		skipDen := acc[2*nPair+n : 2*nPair+2*n]
		clickNum := acc[2*nPair+2*n : 2*nPair+3*n]
		clickDen := acc[2*nPair+3*n:]

		for p := 0; p < nPair; p++ {
			if rDen[p] > 0 {
				rel[p] = clampProb(rNum[p] / rDen[p])
			}
		}
		for i := 0; i < n; i++ {
			if skipDen[i] > 0 {
				m.LambdaSkip[i] = clampProb(skipNum[i] / skipDen[i])
			}
			if clickDen[i] > 0 {
				m.LambdaClick[i] = clampProb(clickNum[i] / clickDen[i])
			}
		}
	}
	return nil
}

// gcmEStep accumulates one worker's posteriors for the sessions
// [lo, hi). acc is laid out as gcmAccStride describes; tails provides
// the wStop scratch (the examination posterior is folded into the
// suffix scan, so no pExam buffer is needed).
func gcmEStep(c *CompiledLog, rel, lSkip, lClick []float64, acc, tails []float64, lo, hi int) {
	nPair := len(rel)
	n := len(lSkip)
	rNum := acc[:nPair]
	rDen := acc[nPair : 2*nPair]
	skipNum := acc[2*nPair : 2*nPair+n]
	skipDen := acc[2*nPair+n : 2*nPair+2*n]
	clickNum := acc[2*nPair+2*n : 2*nPair+3*n]
	clickDen := acc[2*nPair+3*n:]
	wStop := tails

	for s := lo; s < hi; s++ {
		b, e := c.off[s], c.off[s+1]
		ns := int(e - b)
		last := int(c.last[s])

		for j := 0; j <= last; j++ {
			p := c.pair[b+int32(j)]
			rDen[p]++
			if c.click[b+int32(j)] {
				rNum[p]++
				if j < last {
					clickNum[j]++
					clickDen[j]++
				}
			} else if j < last {
				skipNum[j]++
				skipDen[j]++
			}
		}

		// Tail posterior: enumerate the latent stop position.
		start := last
		cont0 := 1.0
		if last >= 0 {
			cont0 = lClick[last]
		} else {
			start = 0
		}
		cur := 1.0
		for t := start; t < ns; t++ {
			switch {
			case last >= 0 && t == last:
				// No factors: the click itself is accounted upstream.
			case last >= 0 && t == last+1:
				cur *= cont0 * (1 - rel[c.pair[b+int32(t)]])
			case last < 0 && t == 0:
				cur *= 1 - rel[c.pair[b+int32(t)]] // E_1 = 1 always
			default:
				cur *= lSkip[t-1] * (1 - rel[c.pair[b+int32(t)]])
			}
			w := cur
			if t < ns-1 {
				stop := 1 - lSkip[t]
				if last >= 0 && t == last {
					stop = 1 - cont0
				}
				w *= stop
			}
			wStop[t] = w
		}
		var z float64
		for t := start; t < ns; t++ {
			z += wStop[t]
		}
		if z <= 0 {
			z = probEps
		}

		// Suffix scan: pExam[j] = sum_{t>=j} wStop[t] / z for j > last.
		// Walk backwards, accumulating the suffix and crediting the
		// lambda accumulators from the already-known pExam[j+1].
		suffix := 0.0
		prevExam := 0.0 // pExam[j+1] during the walk
		for j := ns - 1; j > last; j-- {
			suffix += wStop[j]
			exam := suffix / z
			p := c.pair[b+int32(j)]
			rDen[p] += exam
			if j < ns-1 {
				skipDen[j] += exam
				skipNum[j] += prevExam
			}
			prevExam = exam
		}
		if last >= 0 && last < ns-1 {
			clickDen[last]++
			clickNum[last] += prevExam // pExam[last+1]
		}
	}
}

// step is GCM's chainWalk step under query q: lambdaClick[i] after a
// click, lambdaSkip[i] after a skip.
func (m *GCM) step(q string) chainStep {
	row := m.pairs.row(q)
	return func(i int, d string) (float64, float64) {
		r := m.r(row, d)
		return r, r*m.lClick(i) + (1-r)*m.lSkip(i)
	}
}

// ClickProbsInto implements Model.
func (m *GCM) ClickProbsInto(s Session, buf []float64) []float64 {
	return chainWalk(s.Docs, resizeProbs(buf, len(s.Docs)), false, m.step(s.Query))
}

// ExaminationProbs implements Examiner.
func (m *GCM) ExaminationProbs(s Session) []float64 {
	return chainWalk(s.Docs, make([]float64, len(s.Docs)), true, m.step(s.Query))
}

// SessionLogLikelihood implements Model.
func (m *GCM) SessionLogLikelihood(s Session) float64 {
	row := m.pairs.row(s.Query)
	last := s.LastClick()
	ll := 0.0
	for j := 0; j <= last; j++ {
		r := m.r(row, s.Docs[j])
		if s.Clicks[j] {
			ll += log(r)
			if j < last {
				ll += log(m.lClick(j))
			}
		} else {
			ll += log(1-r) + log(m.lSkip(j))
		}
	}
	return ll + log(m.tailZ(s, row, last))
}
