package clickmodel

// CCM is the click chain model of Guo et al., generalising DCM with an
// abandonment option and relevance-dependent continuation:
//
//	P(E_{i+1} = 1 | E_i = 1, C_i = 0) = alpha1
//	P(E_{i+1} = 1 | E_i = 1, C_i = 1) = alpha2·(1 - r_i) + alpha3·r_i
//	P(C_i = 1 | E_i = 1)              = r(q, d_i)
//
// The original paper performs Bayesian inference over r; this
// reproduction estimates point relevances and the three alphas with an
// EM that enumerates the latent stop position exactly (as in DBN) and
// updates alpha2/alpha3 by relevance-weighted moment matching, a standard
// approximation when relevance is a point estimate rather than a random
// variable. The EM runs over the compiled log with per-worker scratch,
// and the fit keeps the log's pair table and one relevance per pair.
type CCM struct {
	Alpha1, Alpha2, Alpha3 float64

	Iterations int
	PriorR     float64
	// Workers caps the parallel E-step fan-out (0 = GOMAXPROCS).
	Workers int

	pairs *pairTable // the fitted log's (query, doc) pairs
	rel   []float64  // pair ID -> relevance
}

// NewCCM returns a CCM with default hyper-parameters.
func NewCCM() *CCM {
	return &CCM{Iterations: 20, PriorR: 0.5, Alpha1: 0.8, Alpha2: 0.6, Alpha3: 0.9}
}

// Name implements Model.
func (m *CCM) Name() string { return "CCM" }

func (m *CCM) defaults() {
	if m.Iterations <= 0 {
		m.Iterations = 20
	}
	if m.PriorR <= 0 || m.PriorR >= 1 {
		m.PriorR = 0.5
	}
	if m.Alpha1 <= 0 || m.Alpha1 >= 1 {
		m.Alpha1 = 0.8
	}
	if m.Alpha2 <= 0 || m.Alpha2 >= 1 {
		m.Alpha2 = 0.6
	}
	if m.Alpha3 <= 0 || m.Alpha3 >= 1 {
		m.Alpha3 = 0.9
	}
}

// r is doc d's relevance under the query whose doc map is row.
func (m *CCM) r(row map[string]int32, d string) float64 {
	return pairVal(row, m.rel, d, m.PriorR)
}

// contClick is the continuation probability after a click on a result
// with relevance r.
func (m *CCM) contClick(r float64) float64 {
	return m.Alpha2*(1-r) + m.Alpha3*r
}

// tailZ mirrors DBN.tailZ for CCM's transition structure: the
// likelihood of the all-skip tail past the last click (index last, -1
// for none), summed over the position where examination stopped. After
// the last click the user continues with contClick(r_last), then keeps
// examining skipped results with alpha1 per step. The compiled E-step
// inlines the same enumeration over worker-owned scratch.
func (m *CCM) tailZ(s Session, row map[string]int32, last int) float64 {
	n := len(s.Docs)
	var z float64
	if last >= 0 {
		cont := m.contClick(m.r(row, s.Docs[last]))
		cur := 1.0
		for t := last; t < n; t++ {
			if t > last {
				step := m.Alpha1
				if t == last+1 {
					step = cont
				}
				cur *= step * (1 - m.r(row, s.Docs[t]))
			}
			w := cur
			if t < n-1 {
				stop := 1 - m.Alpha1
				if t == last {
					stop = 1 - cont
				}
				w *= stop
			}
			z += w
		}
	} else {
		cur := 1.0
		for t := 0; t < n; t++ {
			if t > 0 {
				cur *= m.Alpha1
			}
			cur *= 1 - m.r(row, s.Docs[t])
			w := cur
			if t < n-1 {
				w *= 1 - m.Alpha1
			}
			z += w
		}
	}
	if z <= 0 {
		z = probEps
	}
	return z
}

// ccmAccStride is one worker's accumulator layout:
// [rNum | rDen | a1Num a1Den a2Num a2Den a3Num a3Den].
func ccmAccStride(nPair int) int { return 2*nPair + 6 }

// FitLog runs EM over a compiled log, fitting the relevances in place
// over the log's pair table.
func (m *CCM) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	m.defaults()
	nPair := c.NumPairs()
	stride := ccmAccStride(nPair)
	workers := emWorkers(m.Workers, c.NumSessions())

	m.pairs = c.tab
	m.rel = filled(m.rel, nPair, m.PriorR)
	rel := m.rel
	fs, buf := getScratch(workers * (stride + 2*c.maxPos))
	defer putScratch(fs)
	sl := slab{buf}
	accAll := sl.take(workers * stride)
	tails := sl.take(workers * 2 * c.maxPos)

	nSess := c.NumSessions()
	for iter := 0; iter < m.Iterations; iter++ {
		if iter > 0 {
			clear(accAll)
		}
		a1, a2, a3 := m.Alpha1, m.Alpha2, m.Alpha3
		if workers == 1 {
			ccmEStep(c, rel, a1, a2, a3, accAll[:stride], tails, 0, nSess)
		} else {
			forEachShard(workers, nSess, func(w, lo, hi int) {
				ccmEStep(c, rel, a1, a2, a3,
					accAll[w*stride:(w+1)*stride],
					tails[w*2*c.maxPos:(w+1)*2*c.maxPos], lo, hi)
			})
		}
		acc := mergeShards(accAll, stride, workers)
		rNum := acc[:nPair]
		rDen := acc[nPair : 2*nPair]
		sc := acc[2*nPair:]

		for p := 0; p < nPair; p++ {
			if rDen[p] > 0 {
				rel[p] = clampProb(rNum[p] / rDen[p])
			}
		}
		if sc[1] > 0 {
			m.Alpha1 = clampProb(sc[0] / sc[1])
		}
		if sc[3] > 0 {
			m.Alpha2 = clampProb(sc[2] / sc[3])
		}
		if sc[5] > 0 {
			m.Alpha3 = clampProb(sc[4] / sc[5])
		}
	}
	return nil
}

// ccmEStep accumulates one worker's posteriors for the sessions
// [lo, hi). acc is laid out as ccmAccStride describes; tails provides
// the wStop/pExam scratch.
func ccmEStep(c *CompiledLog, rel []float64, a1, a2, a3 float64, acc, tails []float64, lo, hi int) {
	nPair := len(rel)
	rNum := acc[:nPair]
	rDen := acc[nPair : 2*nPair]
	sc := acc[2*nPair:] // a1Num a1Den a2Num a2Den a3Num a3Den
	wStop := tails[:len(tails)/2]
	pExam := tails[len(tails)/2:]

	for s := lo; s < hi; s++ {
		b, e := c.off[s], c.off[s+1]
		n := int(e - b)
		last := int(c.last[s])

		for j := 0; j <= last; j++ {
			p := c.pair[b+int32(j)]
			rDen[p]++
			if c.click[b+int32(j)] {
				rNum[p]++
			}
			if j < last {
				if c.click[b+int32(j)] {
					// Continued after a click: relevance-weighted
					// credit to alpha2/alpha3.
					r := rel[p]
					sc[3] += 1 - r
					sc[2] += 1 - r
					sc[5] += r
					sc[4] += r
				} else {
					sc[1]++
					sc[0]++
				}
			}
		}

		// Tail posterior: enumerate the latent stop position.
		if last >= 0 {
			rLast := rel[c.pair[b+int32(last)]]
			cont := a2*(1-rLast) + a3*rLast
			cur := 1.0
			for t := last; t < n; t++ {
				if t > last {
					step := a1
					if t == last+1 {
						step = cont
					}
					cur *= step * (1 - rel[c.pair[b+int32(t)]])
				}
				w := cur
				if t < n-1 {
					stop := 1 - a1
					if t == last {
						stop = 1 - cont
					}
					w *= stop
				}
				wStop[t] = w
			}
		} else {
			cur := 1.0
			for t := 0; t < n; t++ {
				if t > 0 {
					cur *= a1
				}
				cur *= 1 - rel[c.pair[b+int32(t)]]
				w := cur
				if t < n-1 {
					w *= 1 - a1
				}
				wStop[t] = w
			}
		}
		var z float64
		start := last
		if start < 0 {
			start = 0
		}
		for t := start; t < n; t++ {
			z += wStop[t]
		}
		if z <= 0 {
			z = probEps
		}
		suffix := 0.0
		for j := n - 1; j > last; j-- {
			suffix += wStop[j]
			pExam[j] = suffix / z
		}
		var pCont float64
		if last >= 0 && last < n-1 {
			pCont = pExam[last+1]
		}

		if last >= 0 && last < n-1 {
			r := rel[c.pair[b+int32(last)]]
			sc[3] += 1 - r
			sc[2] += (1 - r) * pCont
			sc[5] += r
			sc[4] += r * pCont
		}
		for j := last + 1; j < n; j++ {
			p := c.pair[b+int32(j)]
			rDen[p] += pExam[j]
			if j < n-1 {
				sc[1] += pExam[j]
				sc[0] += pExam[j+1]
			}
		}
	}
}

// step is CCM's chainWalk step under query q: contClick after a click,
// alpha1 after a skip.
func (m *CCM) step(q string) chainStep {
	row := m.pairs.row(q)
	return func(_ int, d string) (float64, float64) {
		r := m.r(row, d)
		return r, r*m.contClick(r) + (1-r)*m.Alpha1
	}
}

// ClickProbsInto implements Model.
func (m *CCM) ClickProbsInto(s Session, buf []float64) []float64 {
	return chainWalk(s.Docs, resizeProbs(buf, len(s.Docs)), false, m.step(s.Query))
}

// ExaminationProbs implements Examiner.
func (m *CCM) ExaminationProbs(s Session) []float64 {
	return chainWalk(s.Docs, make([]float64, len(s.Docs)), true, m.step(s.Query))
}

// SessionLogLikelihood implements Model.
func (m *CCM) SessionLogLikelihood(s Session) float64 {
	row := m.pairs.row(s.Query)
	last := s.LastClick()
	ll := 0.0
	for j := 0; j <= last; j++ {
		r := m.r(row, s.Docs[j])
		if s.Clicks[j] {
			ll += log(r)
			if j < last {
				ll += log(m.contClick(r))
			}
		} else {
			ll += log(1-r) + log(m.Alpha1)
		}
	}
	return ll + log(m.tailZ(s, row, last))
}
