package clickmodel

// DBN is the dynamic Bayesian network model of Chapelle & Zhang. Each
// (query, doc) has an attractiveness a (perceived relevance: click given
// examination) and a satisfaction s (post-click relevance: the user stops
// when satisfied). A global continuation parameter gamma governs whether
// an unsatisfied user keeps examining:
//
//	P(C_i = 1 | E_i = 1)                  = a(q, d_i)
//	P(S_i = 1 | C_i = 1)                  = s(q, d_i)
//	P(E_{i+1} = 1 | E_i = 1, C_i = 0)     = gamma
//	P(E_{i+1} = 1 | E_i = 1, C_i = 1)     = gamma · (1 - s(q, d_i))
//
// Estimation is EM over the compiled log. Given the observed clicks,
// every position up to the last click is certainly examined; the only
// latent structure is where examination stopped in the tail and whether
// the last click satisfied the user. Both are handled exactly by
// enumerating the stop position, with per-worker scratch buffers
// replacing the per-session allocations of the map-based fit. The fit
// keeps the log's pair table and a and s per pair.
type DBN struct {
	Gamma float64 // continuation probability

	Iterations     int
	PriorA, PriorS float64
	// Workers caps the parallel E-step fan-out (0 = GOMAXPROCS).
	Workers int

	pairs     *pairTable // the fitted log's (query, doc) pairs
	attr, sat []float64  // pair ID -> attractiveness, satisfaction
}

// NewDBN returns a DBN with default hyper-parameters.
func NewDBN() *DBN { return &DBN{Iterations: 20, PriorA: 0.5, PriorS: 0.5, Gamma: 0.9} }

// Name implements Model.
func (m *DBN) Name() string { return "DBN" }

func (m *DBN) defaults() {
	if m.Iterations <= 0 {
		m.Iterations = 20
	}
	if m.PriorA <= 0 || m.PriorA >= 1 {
		m.PriorA = 0.5
	}
	if m.PriorS <= 0 || m.PriorS >= 1 {
		m.PriorS = 0.5
	}
	if m.Gamma <= 0 || m.Gamma >= 1 {
		m.Gamma = 0.9
	}
}

// as returns the attractiveness and satisfaction of doc d under the
// query whose doc map is row (pairTable.row): one probe.
func (m *DBN) as(row map[string]int32, d string) (a, s float64) {
	if id, ok := row[d]; ok {
		return m.attr[id], m.sat[id]
	}
	return m.PriorA, m.PriorS
}

// tailZ is the likelihood of the observed all-skip tail past the last
// click (index last, -1 for none): the sum, over the position t where
// examination stopped, of the joint probability of the skips up to t,
// plus — when there is a click — the branch in which that click
// satisfied the user. The compiled E-step inlines the same enumeration
// over worker-owned scratch.
func (m *DBN) tailZ(s Session, row map[string]int32, last int) float64 {
	n := len(s.Docs)
	g := m.Gamma
	var z float64
	if last >= 0 {
		_, sat := m.as(row, s.Docs[last])
		z = sat
		cur := 1 - sat // unsatisfied, still deciding
		for t := last; t < n; t++ {
			if t > last {
				// Continue into t, which must then be skipped.
				a, _ := m.as(row, s.Docs[t])
				cur *= g * (1 - a)
			}
			w := cur
			if t < n-1 {
				w *= 1 - g // explicit stop before the next position
			}
			z += w
		}
	} else {
		cur := 1.0 // position 0 is always examined
		for t := 0; t < n; t++ {
			if t > 0 {
				cur *= g
			}
			a, _ := m.as(row, s.Docs[t])
			cur *= 1 - a
			w := cur
			if t < n-1 {
				w *= 1 - g
			}
			z += w
		}
	}
	if z <= 0 {
		z = probEps
	}
	return z
}

// dbnAcc is the layout of one worker's accumulator region:
// [aNum | aDen | sNum | sDen | gNum gDen], pair-indexed plus two
// scalars at the end.
func dbnAccStride(nPair int) int { return 4*nPair + 2 }

// FitLog runs EM with exact tail enumeration over a compiled log,
// fitting a and s in place over the log's pair table.
func (m *DBN) FitLog(c *CompiledLog) error {
	if c == nil {
		return errNilLog
	}
	m.defaults()
	nPair := c.NumPairs()
	stride := dbnAccStride(nPair)
	workers := emWorkers(m.Workers, c.NumSessions())

	m.pairs = c.tab
	m.attr, m.sat = filled(m.attr, nPair, m.PriorA), filled(m.sat, nPair, m.PriorS)
	attr, sat := m.attr, m.sat
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
		g := m.Gamma
		if workers == 1 {
			dbnEStep(c, attr, sat, g, accAll[:stride], tails, 0, nSess)
		} else {
			forEachShard(workers, nSess, func(w, lo, hi int) {
				dbnEStep(c, attr, sat, g,
					accAll[w*stride:(w+1)*stride],
					tails[w*2*c.maxPos:(w+1)*2*c.maxPos], lo, hi)
			})
		}
		acc := mergeShards(accAll, stride, workers)
		aNum := acc[:nPair]
		aDen := acc[nPair : 2*nPair]
		sNum := acc[2*nPair : 3*nPair]
		sDen := acc[3*nPair : 4*nPair]
		gNum, gDen := acc[4*nPair], acc[4*nPair+1]

		for p := 0; p < nPair; p++ {
			if aDen[p] > 0 {
				attr[p] = clampProb(aNum[p] / aDen[p])
			}
			if sDen[p] > 0 {
				sat[p] = clampProb(sNum[p] / sDen[p])
			}
		}
		if gDen > 0 {
			m.Gamma = clampProb(gNum / gDen)
		}
	}
	return nil
}

// dbnEStep accumulates one worker's posteriors for the sessions
// [lo, hi). acc is laid out as dbnAccStride describes; tails provides
// the wStop/pExam scratch (maxPos entries each).
func dbnEStep(c *CompiledLog, attr, sat []float64, g float64, acc, tails []float64, lo, hi int) {
	nPair := len(attr)
	aNum := acc[:nPair]
	aDen := acc[nPair : 2*nPair]
	sNum := acc[2*nPair : 3*nPair]
	sDen := acc[3*nPair : 4*nPair]
	wStop := tails[:len(tails)/2]
	pExam := tails[len(tails)/2:]

	for s := lo; s < hi; s++ {
		b, e := c.off[s], c.off[s+1]
		n := int(e - b)
		last := int(c.last[s])

		// Certainly-examined prefix.
		for j := 0; j <= last; j++ {
			p := c.pair[b+int32(j)]
			aDen[p]++
			if c.click[b+int32(j)] {
				aNum[p]++
			}
			if j < last {
				if c.click[b+int32(j)] {
					// Satisfied here is impossible: clicks follow.
					sDen[p]++
					// The continue decision was taken and succeeded.
				}
				acc[4*nPair]++ // gNum
				acc[4*nPair+1]++
			}
		}

		// Tail posterior: enumerate the latent stop position.
		var wSat float64
		if last >= 0 {
			sl := sat[c.pair[b+int32(last)]]
			wSat = sl
			cur := 1 - sl // unsatisfied, still deciding
			for t := last; t < n; t++ {
				if t > last {
					// Continue into t, which must then be skipped.
					cur *= g * (1 - attr[c.pair[b+int32(t)]])
				}
				w := cur
				if t < n-1 {
					w *= 1 - g // explicit stop before the next position
				}
				wStop[t] = w
			}
		} else {
			cur := 1.0 // position 0 is always examined
			for t := 0; t < n; t++ {
				if t > 0 {
					cur *= g
				}
				cur *= 1 - attr[c.pair[b+int32(t)]]
				w := cur
				if t < n-1 {
					w *= 1 - g
				}
				wStop[t] = w
			}
		}
		z := wSat
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
		pSat := wSat / z
		suffix := 0.0
		for j := n - 1; j > last; j-- {
			suffix += wStop[j]
			pExam[j] = suffix / z
		}

		if last >= 0 {
			p := c.pair[b+int32(last)]
			sNum[p] += pSat
			sDen[p]++
			if last < n-1 {
				// Unsatisfied users took a gamma decision here.
				acc[4*nPair+1] += 1 - pSat
				acc[4*nPair] += pExam[last+1]
			}
		}
		for j := last + 1; j < n; j++ {
			p := c.pair[b+int32(j)]
			aDen[p] += pExam[j]
			if j < n-1 {
				acc[4*nPair+1] += pExam[j]
				acc[4*nPair] += pExam[j+1]
			}
		}
	}
}

// step is DBN's chainWalk step under query q: an unsatisfied user goes
// on with probability gamma.
func (m *DBN) step(q string) chainStep {
	row := m.pairs.row(q)
	return func(_ int, d string) (float64, float64) {
		a, sat := m.as(row, d)
		return a, m.Gamma * (a*(1-sat) + (1 - a))
	}
}

// ClickProbsInto implements Model.
func (m *DBN) ClickProbsInto(s Session, buf []float64) []float64 {
	return chainWalk(s.Docs, resizeProbs(buf, len(s.Docs)), false, m.step(s.Query))
}

// ExaminationProbs implements Examiner.
func (m *DBN) ExaminationProbs(s Session) []float64 {
	return chainWalk(s.Docs, make([]float64, len(s.Docs)), true, m.step(s.Query))
}

// SessionLogLikelihood implements Model: exact likelihood with the
// certainly-examined prefix plus the marginalised tail.
func (m *DBN) SessionLogLikelihood(s Session) float64 {
	row := m.pairs.row(s.Query)
	last := s.LastClick()
	ll := 0.0
	for j := 0; j <= last; j++ {
		a, sat := m.as(row, s.Docs[j])
		if s.Clicks[j] {
			ll += log(a)
			if j < last {
				// Unsatisfied and continued.
				ll += log((1 - sat) * m.Gamma)
			}
		} else {
			ll += log(1-a) + log(m.Gamma)
		}
	}
	ll += log(m.tailZ(s, row, last))
	return ll
}
