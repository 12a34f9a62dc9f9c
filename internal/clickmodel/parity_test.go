package clickmodel

// Parity property tests: the compiled-log (interned, dense, sharded)
// fits must reproduce the seed map-based fits parameter-for-parameter.
// Each ref* function below is a direct port of the pre-compiled-log
// estimation code; the tests fit both on shared synthetic logs and
// compare every exported parameter within parityTol.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

const parityTol = 1e-9

// synthParityLog builds a varied synthetic log: multiple queries,
// result lists of mixed depth, multi-click, single-click and clickless
// sessions — the shapes that exercise every branch of the estimators.
func synthParityLog(seed int64, n int) []Session {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Session, 0, n)
	for k := 0; k < n; k++ {
		q := fmt.Sprintf("q%d", rng.Intn(12))
		depth := 1 + rng.Intn(8)
		perm := rng.Perm(16)
		docs := make([]string, depth)
		clicks := make([]bool, depth)
		examining := true
		for i := 0; i < depth; i++ {
			d := perm[i]
			docs[i] = fmt.Sprintf("d%d", d)
			if examining {
				attr := 0.08 + 0.05*float64(d%10)
				if rng.Float64() < attr {
					clicks[i] = true
					if rng.Float64() < 0.45 {
						examining = false
					}
				}
				if rng.Float64() > 0.88 {
					examining = false
				}
			}
		}
		out = append(out, Session{Query: q, Docs: docs, Clicks: clicks})
	}
	return out
}

func compareQDMaps(t *testing.T, what string, got, want map[qd]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing key %v", what, k)
		}
		if math.Abs(g-w) > parityTol {
			t.Errorf("%s[%v] = %.15f, want %.15f (|diff| %g)", what, k, g, w, math.Abs(g-w))
		}
	}
}

// tableMap lists dense per-pair values as the map the reference
// estimators return: every pair of the table, by (query, doc).
func tableMap(tab *pairTable, vals []float64) map[qd]float64 {
	out := make(map[qd]float64, len(vals))
	for p, k := range tab.pairs {
		out[k] = vals[p]
	}
	return out
}

// withPrior is a reference map as a model scores it over the pairs of
// keys: a pair the reference holds no value for scores prior.
func withPrior(ref, keys map[qd]float64, prior float64) map[qd]float64 {
	out := make(map[qd]float64, len(keys))
	for k := range keys {
		v, ok := ref[k]
		if !ok {
			v = prior
		}
		out[k] = v
	}
	return out
}

func compareSlices(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > parityTol {
			t.Errorf("%s[%d] = %.15f, want %.15f", what, i, got[i], want[i])
		}
	}
}

func compareScalar(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > parityTol {
		t.Errorf("%s = %.15f, want %.15f", what, got, want)
	}
}

type refAcc struct{ num, den float64 }

// refPBM is the seed map-based PBM EM.
func refPBM(sessions []Session, iters int, prior float64) ([]float64, map[qd]float64) {
	n := maxPositions(sessions)
	gamma := make([]float64, n)
	for i := range gamma {
		gamma[i] = 1.0 / (1.0 + float64(i))
	}
	alpha := make(map[qd]float64)
	for _, s := range sessions {
		for _, d := range s.Docs {
			alpha[qd{s.Query, d}] = prior
		}
	}
	for iter := 0; iter < iters; iter++ {
		gammaNum := make([]float64, n)
		gammaDen := make([]float64, n)
		alphaAcc := make(map[qd]refAcc, len(alpha))
		for _, s := range sessions {
			for i, d := range s.Docs {
				k := qd{s.Query, d}
				a := alpha[k]
				g := gamma[i]
				var postE, postA float64
				if s.Clicks[i] {
					postE, postA = 1, 1
				} else {
					den := clampProb(1 - a*g)
					postE = g * (1 - a) / den
					postA = a * (1 - g) / den
				}
				gammaNum[i] += postE
				gammaDen[i]++
				ac := alphaAcc[k]
				ac.num += postA
				ac.den++
				alphaAcc[k] = ac
			}
		}
		for i := 0; i < n; i++ {
			if gammaDen[i] > 0 {
				gamma[i] = clampProb(gammaNum[i] / gammaDen[i])
			}
		}
		for k, ac := range alphaAcc {
			if ac.den > 0 {
				alpha[k] = clampProb(ac.num / ac.den)
			}
		}
	}
	return gamma, alpha
}

// refUBM is the seed map-based UBM EM.
func refUBM(sessions []Session, iters int, prior float64) ([][]float64, map[qd]float64) {
	n := maxPositions(sessions)
	gamma := make([][]float64, n)
	for i := range gamma {
		gamma[i] = make([]float64, i+1)
		for j := range gamma[i] {
			gamma[i][j] = 1.0 / (1.0 + float64(i-j))
		}
	}
	alpha := make(map[qd]float64)
	for _, s := range sessions {
		for _, d := range s.Docs {
			alpha[qd{s.Query, d}] = prior
		}
	}
	for iter := 0; iter < iters; iter++ {
		gNum := make([][]float64, n)
		gDen := make([][]float64, n)
		for i := range gNum {
			gNum[i] = make([]float64, i+1)
			gDen[i] = make([]float64, i+1)
		}
		aAcc := make(map[qd]refAcc, len(alpha))
		for _, s := range sessions {
			prev := prevClickIndex(s)
			for i, d := range s.Docs {
				k := qd{s.Query, d}
				a := alpha[k]
				g := gamma[i][prev[i]]
				var postE, postA float64
				if s.Clicks[i] {
					postE, postA = 1, 1
				} else {
					den := clampProb(1 - a*g)
					postE = g * (1 - a) / den
					postA = a * (1 - g) / den
				}
				gNum[i][prev[i]] += postE
				gDen[i][prev[i]]++
				ac := aAcc[k]
				ac.num += postA
				ac.den++
				aAcc[k] = ac
			}
		}
		for i := range gamma {
			for j := range gamma[i] {
				if gDen[i][j] > 0 {
					gamma[i][j] = clampProb(gNum[i][j] / gDen[i][j])
				}
			}
		}
		for k, ac := range aAcc {
			if ac.den > 0 {
				alpha[k] = clampProb(ac.num / ac.den)
			}
		}
	}
	return gamma, alpha
}

// refCascade is the seed closed-form cascade MLE.
func refCascade(sessions []Session, laplaceA, laplaceB float64) map[qd]float64 {
	type acc struct{ clicks, exams float64 }
	accs := make(map[qd]acc)
	for _, s := range sessions {
		stop := s.FirstClick()
		if stop < 0 {
			stop = len(s.Docs) - 1
		}
		for i := 0; i <= stop; i++ {
			k := qd{s.Query, s.Docs[i]}
			a := accs[k]
			a.exams++
			if s.Clicks[i] {
				a.clicks++
			}
			accs[k] = a
		}
	}
	alpha := make(map[qd]float64, len(accs))
	for k, a := range accs {
		alpha[k] = clampProb((a.clicks + laplaceA) / (a.exams + laplaceB))
	}
	return alpha
}

// refDCM is the seed closed-form DCM estimation.
func refDCM(sessions []Session, laplaceA, laplaceB float64) (map[qd]float64, []float64) {
	n := maxPositions(sessions)
	type acc struct{ clicks, exams float64 }
	accs := make(map[qd]acc)
	lastClickAt := make([]float64, n)
	clickAt := make([]float64, n)
	for _, s := range sessions {
		last := s.LastClick()
		stop := last
		if stop < 0 {
			stop = len(s.Docs) - 1
		}
		for i := 0; i <= stop; i++ {
			k := qd{s.Query, s.Docs[i]}
			a := accs[k]
			a.exams++
			if s.Clicks[i] {
				a.clicks++
				clickAt[i]++
				if i == last {
					lastClickAt[i]++
				}
			}
			accs[k] = a
		}
	}
	alpha := make(map[qd]float64, len(accs))
	for k, a := range accs {
		alpha[k] = clampProb((a.clicks + laplaceA) / (a.exams + laplaceB))
	}
	lambda := make([]float64, n)
	for i := 0; i < n; i++ {
		if den := clickAt[i] + laplaceB; den > 0 {
			lambda[i] = clampProb(1 - (lastClickAt[i]+laplaceA)/den)
		} else {
			lambda[i] = 0.5
		}
	}
	return alpha, lambda
}

// refSDBN is the seed closed-form SDBN counting.
func refSDBN(sessions []Session, laplaceA, laplaceB float64) (map[qd]float64, map[qd]float64) {
	aAcc := make(map[qd]refAcc)
	sAcc := make(map[qd]refAcc)
	for _, s := range sessions {
		last := s.LastClick()
		if last < 0 {
			last = len(s.Docs) - 1
		}
		for i := 0; i <= last; i++ {
			k := qd{s.Query, s.Docs[i]}
			a := aAcc[k]
			a.den++
			if s.Clicks[i] {
				a.num++
				sc := sAcc[k]
				sc.den++
				if i == s.LastClick() {
					sc.num++
				}
				sAcc[k] = sc
			}
			aAcc[k] = a
		}
	}
	attr := make(map[qd]float64, len(aAcc))
	for k, a := range aAcc {
		attr[k] = clampProb((a.num + laplaceA) / (a.den + laplaceB))
	}
	sat := make(map[qd]float64, len(sAcc))
	for k, sc := range sAcc {
		sat[k] = clampProb((sc.num + laplaceA) / (sc.den + laplaceB))
	}
	return attr, sat
}

// refDBN is the seed map-based DBN EM (with its per-session
// tail-posterior allocations).
func refDBN(sessions []Session, iters int, priorA, priorS, gamma0 float64) (map[qd]float64, map[qd]float64, float64) {
	attr := make(map[qd]float64)
	sat := make(map[qd]float64)
	for _, s := range sessions {
		for _, d := range s.Docs {
			k := qd{s.Query, d}
			attr[k] = priorA
			sat[k] = priorS
		}
	}
	gamma := gamma0
	a := func(q, d string) float64 { return attr[qd{q, d}] }
	sf := func(q, d string) float64 { return sat[qd{q, d}] }

	tail := func(s Session, last int) (pSat float64, pExam []float64) {
		n := len(s.Docs)
		pExam = make([]float64, n)
		wStop := make([]float64, n)
		var wSat float64
		if last >= 0 {
			sl := sf(s.Query, s.Docs[last])
			wSat = sl
			cur := 1 - sl
			for t := last; t < n; t++ {
				if t > last {
					cur *= gamma * (1 - a(s.Query, s.Docs[t]))
				}
				w := cur
				if t < n-1 {
					w *= 1 - gamma
				}
				wStop[t] = w
			}
		} else {
			cur := 1.0
			for t := 0; t < n; t++ {
				if t > 0 {
					cur *= gamma
				}
				cur *= 1 - a(s.Query, s.Docs[t])
				w := cur
				if t < n-1 {
					w *= 1 - gamma
				}
				wStop[t] = w
			}
		}
		z := wSat
		for _, w := range wStop {
			z += w
		}
		if z <= 0 {
			z = probEps
		}
		pSat = wSat / z
		suffix := 0.0
		for j := n - 1; j > last; j-- {
			suffix += wStop[j]
			pExam[j] = suffix / z
		}
		return pSat, pExam
	}

	for iter := 0; iter < iters; iter++ {
		aAcc := make(map[qd]refAcc, len(attr))
		sAcc := make(map[qd]refAcc, len(sat))
		var gNum, gDen float64
		for _, sess := range sessions {
			n := len(sess.Docs)
			last := sess.LastClick()
			for j := 0; j <= last; j++ {
				k := qd{sess.Query, sess.Docs[j]}
				ac := aAcc[k]
				ac.den++
				if sess.Clicks[j] {
					ac.num++
				}
				aAcc[k] = ac
				if sess.Clicks[j] && j < last {
					sc := sAcc[k]
					sc.den++
					sAcc[k] = sc
					gNum++
					gDen++
				}
				if !sess.Clicks[j] && j < last {
					gNum++
					gDen++
				}
			}
			pSat, pExam := tail(sess, last)
			if last >= 0 {
				k := qd{sess.Query, sess.Docs[last]}
				sc := sAcc[k]
				sc.num += pSat
				sc.den++
				sAcc[k] = sc
				if last < n-1 {
					gDen += 1 - pSat
					gNum += pExam[last+1]
				}
			}
			for j := last + 1; j < n; j++ {
				k := qd{sess.Query, sess.Docs[j]}
				ac := aAcc[k]
				ac.den += pExam[j]
				aAcc[k] = ac
				if j < n-1 {
					gDen += pExam[j]
					gNum += pExam[j+1]
				}
			}
		}
		for k, ac := range aAcc {
			if ac.den > 0 {
				attr[k] = clampProb(ac.num / ac.den)
			}
		}
		for k, sc := range sAcc {
			if sc.den > 0 {
				sat[k] = clampProb(sc.num / sc.den)
			}
		}
		if gDen > 0 {
			gamma = clampProb(gNum / gDen)
		}
	}
	return attr, sat, gamma
}

// refCCM is the seed map-based CCM EM.
func refCCM(sessions []Session, iters int, priorR, alpha1, alpha2, alpha3 float64) (map[qd]float64, float64, float64, float64) {
	rel := make(map[qd]float64)
	for _, s := range sessions {
		for _, d := range s.Docs {
			rel[qd{s.Query, d}] = priorR
		}
	}
	r := func(q, d string) float64 { return rel[qd{q, d}] }
	contClick := func(rv float64) float64 { return alpha2*(1-rv) + alpha3*rv }

	tail := func(s Session, last int) (pCont float64, pExam []float64) {
		n := len(s.Docs)
		pExam = make([]float64, n)
		wStop := make([]float64, n)
		if last >= 0 {
			cont := contClick(r(s.Query, s.Docs[last]))
			cur := 1.0
			for t := last; t < n; t++ {
				if t > last {
					step := alpha1
					if t == last+1 {
						step = cont
					}
					cur *= step * (1 - r(s.Query, s.Docs[t]))
				}
				w := cur
				if t < n-1 {
					stop := 1 - alpha1
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
					cur *= alpha1
				}
				cur *= 1 - r(s.Query, s.Docs[t])
				w := cur
				if t < n-1 {
					w *= 1 - alpha1
				}
				wStop[t] = w
			}
		}
		var z float64
		for _, w := range wStop {
			z += w
		}
		if z <= 0 {
			z = probEps
		}
		suffix := 0.0
		for j := n - 1; j > last; j-- {
			suffix += wStop[j]
			pExam[j] = suffix / z
		}
		if last >= 0 && last < n-1 {
			pCont = pExam[last+1]
		}
		return pCont, pExam
	}

	for iter := 0; iter < iters; iter++ {
		rAcc := make(map[qd]refAcc, len(rel))
		var a1Num, a1Den float64
		var a2Num, a2Den, a3Num, a3Den float64
		for _, sess := range sessions {
			n := len(sess.Docs)
			last := sess.LastClick()
			for j := 0; j <= last; j++ {
				k := qd{sess.Query, sess.Docs[j]}
				ra := rAcc[k]
				ra.den++
				if sess.Clicks[j] {
					ra.num++
				}
				rAcc[k] = ra
				if j < last {
					if sess.Clicks[j] {
						rv := r(sess.Query, sess.Docs[j])
						a2Den += 1 - rv
						a2Num += 1 - rv
						a3Den += rv
						a3Num += rv
					} else {
						a1Den++
						a1Num++
					}
				}
			}
			pCont, pExam := tail(sess, last)
			if last >= 0 && last < n-1 {
				rv := r(sess.Query, sess.Docs[last])
				a2Den += 1 - rv
				a2Num += (1 - rv) * pCont
				a3Den += rv
				a3Num += rv * pCont
			}
			for j := last + 1; j < n; j++ {
				k := qd{sess.Query, sess.Docs[j]}
				ra := rAcc[k]
				ra.den += pExam[j]
				rAcc[k] = ra
				if j < n-1 {
					a1Den += pExam[j]
					a1Num += pExam[j+1]
				}
			}
		}
		for k, ra := range rAcc {
			if ra.den > 0 {
				rel[k] = clampProb(ra.num / ra.den)
			}
		}
		if a1Den > 0 {
			alpha1 = clampProb(a1Num / a1Den)
		}
		if a2Den > 0 {
			alpha2 = clampProb(a2Num / a2Den)
		}
		if a3Den > 0 {
			alpha3 = clampProb(a3Num / a3Den)
		}
	}
	return rel, alpha1, alpha2, alpha3
}

// refGCM is the seed map-based GCM EM.
func refGCM(sessions []Session, iters int, priorR float64) (map[qd]float64, []float64, []float64) {
	n := maxPositions(sessions)
	lambdaSkip := make([]float64, n)
	lambdaClick := make([]float64, n)
	for i := 0; i < n; i++ {
		lambdaSkip[i] = 0.9
		lambdaClick[i] = 0.6
	}
	rel := make(map[qd]float64)
	for _, s := range sessions {
		for _, d := range s.Docs {
			rel[qd{s.Query, d}] = priorR
		}
	}
	r := func(q, d string) float64 { return rel[qd{q, d}] }

	tail := func(s Session, last int) []float64 {
		n := len(s.Docs)
		pExam := make([]float64, n)
		wStop := make([]float64, n)
		start := last
		cont0 := 1.0
		if last >= 0 {
			cont0 = lambdaClick[last]
		} else {
			start = 0
		}
		cur := 1.0
		for t := start; t < n; t++ {
			switch {
			case last >= 0 && t == last:
			case last >= 0 && t == last+1:
				cur *= cont0 * (1 - r(s.Query, s.Docs[t]))
			case last < 0 && t == 0:
				cur *= 1 - r(s.Query, s.Docs[t])
			default:
				cur *= lambdaSkip[t-1] * (1 - r(s.Query, s.Docs[t]))
			}
			w := cur
			if t < n-1 {
				stop := 1 - lambdaSkip[t]
				if last >= 0 && t == last {
					stop = 1 - cont0
				}
				w *= stop
			}
			wStop[t] = w
		}
		var z float64
		for _, w := range wStop {
			z += w
		}
		if z <= 0 {
			z = probEps
		}
		suffix := 0.0
		for j := n - 1; j > last; j-- {
			suffix += wStop[j]
			pExam[j] = suffix / z
		}
		return pExam
	}

	for iter := 0; iter < iters; iter++ {
		rAcc := make(map[qd]refAcc, len(rel))
		skipNum := make([]float64, n)
		skipDen := make([]float64, n)
		clickNum := make([]float64, n)
		clickDen := make([]float64, n)
		for _, sess := range sessions {
			ns := len(sess.Docs)
			last := sess.LastClick()
			for j := 0; j <= last; j++ {
				k := qd{sess.Query, sess.Docs[j]}
				ra := rAcc[k]
				ra.den++
				if sess.Clicks[j] {
					ra.num++
				}
				rAcc[k] = ra
				if j < last {
					if sess.Clicks[j] {
						clickNum[j]++
						clickDen[j]++
					} else {
						skipNum[j]++
						skipDen[j]++
					}
				}
			}
			pExam := tail(sess, last)
			if last >= 0 && last < ns-1 {
				clickDen[last]++
				clickNum[last] += pExam[last+1]
			}
			for j := last + 1; j < ns; j++ {
				k := qd{sess.Query, sess.Docs[j]}
				ra := rAcc[k]
				ra.den += pExam[j]
				rAcc[k] = ra
				if j < ns-1 {
					skipDen[j] += pExam[j]
					skipNum[j] += pExam[j+1]
				}
			}
		}
		for k, ra := range rAcc {
			if ra.den > 0 {
				rel[k] = clampProb(ra.num / ra.den)
			}
		}
		for i := 0; i < n; i++ {
			if skipDen[i] > 0 {
				lambdaSkip[i] = clampProb(skipNum[i] / skipDen[i])
			}
			if clickDen[i] > 0 {
				lambdaClick[i] = clampProb(clickNum[i] / clickDen[i])
			}
		}
	}
	return rel, lambdaSkip, lambdaClick
}

// parityLogs returns the seeds the property tests sweep.
var paritySeeds = []int64{101, 202, 303}

func TestPBMParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewPBM()
		m.Iterations = 8
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		gamma, alpha := refPBM(sessions, 8, m.PriorAlpha)
		compareSlices(t, "PBM gamma", m.Gamma, gamma)
		compareQDMaps(t, "PBM alpha", tableMap(m.pairs, m.alphas), alpha)
	}
}

func TestUBMParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewUBM()
		m.Iterations = 8
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		gamma, alpha := refUBM(sessions, 8, m.PriorAlpha)
		if len(m.Gamma) != len(gamma) {
			t.Fatalf("gamma rows %d, want %d", len(m.Gamma), len(gamma))
		}
		for i := range gamma {
			compareSlices(t, fmt.Sprintf("UBM gamma[%d]", i), m.Gamma[i], gamma[i])
		}
		compareQDMaps(t, "UBM alpha", tableMap(m.pairs, m.alphas), alpha)
	}
}

func TestCascadeParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewCascade()
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		compareQDMaps(t, "Cascade alpha", tableMap(m.pairs, m.alphas), refCascade(sessions, m.LaplaceA, m.LaplaceB))
	}
}

func TestDCMParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewDCM()
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		alpha, lambda := refDCM(sessions, m.LaplaceA, m.LaplaceB)
		compareQDMaps(t, "DCM alpha", tableMap(m.pairs, m.alphas), alpha)
		compareSlices(t, "DCM lambda", m.Lambda, lambda)
	}
}

func TestSDBNParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewSDBN()
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		attr, sat := refSDBN(sessions, m.LaplaceA, m.LaplaceB)
		compareQDMaps(t, "SDBN attr", tableMap(m.pairs, m.attr), attr)
		compareQDMaps(t, "SDBN sat", tableMap(m.pairs, m.sat), withPrior(sat, attr, m.PriorS))
	}
}

func TestDBNParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewDBN()
		m.Iterations = 8
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		attr, sat, gamma := refDBN(sessions, 8, m.PriorA, m.PriorS, 0.9)
		compareQDMaps(t, "DBN attr", tableMap(m.pairs, m.attr), attr)
		compareQDMaps(t, "DBN sat", tableMap(m.pairs, m.sat), sat)
		compareScalar(t, "DBN gamma", m.Gamma, gamma)
	}
}

func TestCCMParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewCCM()
		m.Iterations = 8
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		rel, a1, a2, a3 := refCCM(sessions, 8, 0.5, 0.8, 0.6, 0.9)
		compareQDMaps(t, "CCM rel", tableMap(m.pairs, m.rel), rel)
		compareScalar(t, "CCM alpha1", m.Alpha1, a1)
		compareScalar(t, "CCM alpha2", m.Alpha2, a2)
		compareScalar(t, "CCM alpha3", m.Alpha3, a3)
	}
}

func TestGCMParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 3000)
		m := NewGCM()
		m.Iterations = 8
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}
		rel, lSkip, lClick := refGCM(sessions, 8, 0.5)
		compareQDMaps(t, "GCM rel", tableMap(m.pairs, m.rel), rel)
		compareSlices(t, "GCM lambdaSkip", m.LambdaSkip, lSkip)
		compareSlices(t, "GCM lambdaClick", m.LambdaClick, lClick)
	}
}

// refBBMPosterior is the seed grid evaluation of E[R | log] from
// map-keyed sufficient statistics (click count plus skip counts keyed
// by the examination gamma they were observed under).
func refBBMPosterior(c float64, nc map[float64]float64, grid int) float64 {
	if c == 0 && len(nc) == 0 {
		return 0.5
	}
	step := 1.0 / float64(grid-1)
	lws := make([]float64, grid)
	maxLW := math.Inf(-1)
	for i := 0; i < grid; i++ {
		r := float64(i) * step
		lw := 0.0
		if c > 0 {
			lw += c * log(r)
		}
		for g, n := range nc {
			lw += n * log(1-g*r)
		}
		lws[i] = lw
		if lw > maxLW {
			maxLW = lw
		}
	}
	var num, den float64
	for i, lw := range lws {
		w := math.Exp(lw - maxLW)
		num += w * float64(i) * step
		den += w
	}
	if den == 0 {
		return 0.5
	}
	return num / den
}

// TestBBMParity checks the Bayesian posterior means against a reference
// built from the seed's map-keyed sufficient statistics over the
// reference UBM browsing layer.
func TestBBMParity(t *testing.T) {
	for _, seed := range paritySeeds {
		sessions := synthParityLog(seed, 2000)
		m := NewBBM()
		m.Browse.Iterations = 8
		if err := fitSessions(m, sessions); err != nil {
			t.Fatal(err)
		}

		gamma, _ := refUBM(sessions, 8, 0.5)
		clicks := make(map[qd]float64)
		nonClick := make(map[qd]map[float64]float64)
		for _, s := range sessions {
			prev := prevClickIndex(s)
			for i, d := range s.Docs {
				k := qd{s.Query, d}
				if s.Clicks[i] {
					clicks[k]++
					continue
				}
				g := gamma[i][prev[i]]
				inner := nonClick[k]
				if inner == nil {
					inner = make(map[float64]float64)
					nonClick[k] = inner
				}
				inner[g]++
			}
		}
		refPM := func(k qd) float64 { return refBBMPosterior(clicks[k], nonClick[k], 51) }

		seen := make(map[qd]bool)
		for _, s := range sessions {
			for _, d := range s.Docs {
				k := qd{s.Query, d}
				if seen[k] {
					continue
				}
				seen[k] = true
				got := m.PosteriorMean(k.q, k.d)
				want := refPM(k)
				if math.Abs(got-want) > parityTol {
					t.Errorf("BBM posterior[%v] = %.15f, want %.15f", k, got, want)
				}
			}
		}
		if got := m.PosteriorMean("unseen-q", "unseen-d"); got != 0.5 {
			t.Errorf("unseen posterior = %v, want prior 0.5", got)
		}
	}
}

// TestBBMSparseFallbackParity forces the sparse skip-count layout
// (result lists deeper than the dense cell cap) and pins its posterior
// means to the same map-keyed reference.
func TestBBMSparseFallbackParity(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	sessions := make([]Session, 0, 60)
	for k := 0; k < 60; k++ {
		depth := 46 + rng.Intn(6) // tri(46) = 1081 > maxDenseBBMCells
		docs := make([]string, depth)
		clicks := make([]bool, depth)
		for i := range docs {
			docs[i] = fmt.Sprintf("d%d", rng.Intn(30))
			clicks[i] = rng.Float64() < 0.08
		}
		sessions = append(sessions, Session{Query: "q", Docs: docs, Clicks: clicks})
	}
	m := NewBBM()
	m.Browse.Iterations = 3
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	if m.nonClickS == nil {
		t.Fatal("deep log did not select the sparse skip-count layout")
	}

	// Reference counts over the *fitted* browsing layer isolate the
	// counting/posterior path from the EM.
	clicks := make(map[qd]float64)
	nonClick := make(map[qd]map[float64]float64)
	for _, s := range sessions {
		prev := prevClickIndex(s)
		for i, d := range s.Docs {
			k := qd{s.Query, d}
			if s.Clicks[i] {
				clicks[k]++
				continue
			}
			g := m.Browse.gamma(i, prev[i])
			if nonClick[k] == nil {
				nonClick[k] = make(map[float64]float64)
			}
			nonClick[k][g]++
		}
	}
	for k := range nonClick {
		got := m.PosteriorMean(k.q, k.d)
		want := refBBMPosterior(clicks[k], nonClick[k], 51)
		if math.Abs(got-want) > parityTol {
			t.Errorf("sparse posterior[%v] = %.15f, want %.15f", k, got, want)
		}
	}
}

// TestParallelFitParity asserts the sharded E-step merge reproduces the
// sequential fit within tolerance for every parallelised model, and —
// run under -race — exercises the concurrent accumulation paths on any
// machine regardless of GOMAXPROCS.
func TestParallelFitParity(t *testing.T) {
	sessions := synthParityLog(404, 4000)
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	fit := func(m Model, workers int) (Model, error) {
		switch mm := m.(type) {
		case *PBM:
			mm.Iterations, mm.Workers = 6, workers
		case *UBM:
			mm.Iterations, mm.Workers = 6, workers
		case *DBN:
			mm.Iterations, mm.Workers = 6, workers
		case *CCM:
			mm.Iterations, mm.Workers = 6, workers
		case *GCM:
			mm.Iterations, mm.Workers = 6, workers
		case *BBM:
			mm.Browse.Iterations = 6
			mm.Workers = workers
			mm.Browse.Workers = workers
		}
		return m, m.FitLog(c)
	}
	news := []func() Model{
		func() Model { return NewPBM() },
		func() Model { return NewCascade() },
		func() Model { return NewDCM() },
		func() Model { return NewUBM() },
		func() Model { return NewBBM() },
		func() Model { return NewCCM() },
		func() Model { return NewDBN() },
		func() Model { return NewSDBN() },
		func() Model { return NewGCM() },
	}
	for _, newModel := range news {
		seqM, err := fit(newModel(), 1)
		if err != nil {
			t.Fatal(err)
		}
		parM, err := fit(newModel(), 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(seqM.Name(), func(t *testing.T) {
			probe := sessions[:200]
			buf := make([]float64, 0, 16)
			for _, s := range probe {
				seq := seqM.ClickProbsInto(s, nil)
				par := parM.ClickProbsInto(s, buf)
				for i := range seq {
					if math.Abs(seq[i]-par[i]) > parityTol {
						t.Fatalf("%s: parallel fit diverged at %v pos %d: %.15f vs %.15f",
							seqM.Name(), s.Query, i, seq[i], par[i])
					}
				}
				if d := math.Abs(seqM.SessionLogLikelihood(s) - parM.SessionLogLikelihood(s)); d > 1e-7 {
					t.Fatalf("%s: LL diverged by %g", seqM.Name(), d)
				}
			}
		})
	}
}

// TestRefitReusesStorage pins the refit contract: fitting an EM model
// twice on a log refills the dense per-pair values in their backing
// arrays, keeps the log's pair table, and yields the same parameters
// bit for bit once the scalars DBN and CCM carry from fit to fit are
// back at their first fit's start (EM restarts every per-pair value
// from the prior); a closed-form refit on another log leaks no stale
// pairs.
func TestRefitReusesStorage(t *testing.T) {
	sessions := synthParityLog(505, 1500)
	c, err := Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	pbm, ubm, dbn, ccm, gcm := NewPBM(), NewUBM(), NewDBN(), NewCCM(), NewGCM()
	for _, n := range []*int{&pbm.Iterations, &ubm.Iterations, &dbn.Iterations, &ccm.Iterations, &gcm.Iterations} {
		*n = 5
	}
	for _, tc := range []struct {
		m     Model
		table func() *pairTable
		vals  func() [][]float64
		reset func()
	}{
		{pbm, func() *pairTable { return pbm.pairs }, func() [][]float64 { return [][]float64{pbm.alphas} }, func() {}},
		{ubm, func() *pairTable { return ubm.pairs }, func() [][]float64 { return [][]float64{ubm.alphas} }, func() {}},
		{dbn, func() *pairTable { return dbn.pairs }, func() [][]float64 { return [][]float64{dbn.attr, dbn.sat} },
			func() { dbn.Gamma = NewDBN().Gamma }},
		{ccm, func() *pairTable { return ccm.pairs }, func() [][]float64 { return [][]float64{ccm.rel} },
			func() { d := NewCCM(); ccm.Alpha1, ccm.Alpha2, ccm.Alpha3 = d.Alpha1, d.Alpha2, d.Alpha3 }},
		{gcm, func() *pairTable { return gcm.pairs }, func() [][]float64 { return [][]float64{gcm.rel} }, func() {}},
	} {
		name := tc.m.Name()
		if err := tc.m.FitLog(c); err != nil {
			t.Fatal(err)
		}
		if tc.table() != c.tab {
			t.Errorf("%s keeps a pair table other than the log's", name)
		}
		var first [][]float64
		for _, v := range tc.vals() {
			if len(v) != c.NumPairs() {
				t.Fatalf("%s holds %d values for %d pairs", name, len(v), c.NumPairs())
			}
			first = append(first, slices.Clone(v))
		}
		before := tc.vals()
		tc.reset()
		if err := tc.m.FitLog(c); err != nil {
			t.Fatal(err)
		}
		for i, v := range tc.vals() {
			if &v[0] != &before[i][0] {
				t.Errorf("%s: the refit moved per-pair parameter %d to a new array", name, i)
			}
			for p := range v {
				if math.Float64bits(v[p]) != math.Float64bits(first[i][p]) {
					t.Fatalf("%s: refit parameter %d of pair %v is %v, the first fit's %v", name, i, c.tab.pairs[p], v[p], first[i][p])
				}
			}
		}
	}

	// Closed-form refit on a different log must not leak stale pairs.
	other := synthParityLog(606, 500)
	c2, err := Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	cas := NewCascade()
	if err := cas.FitLog(c); err != nil {
		t.Fatal(err)
	}
	if err := cas.FitLog(c2); err != nil {
		t.Fatal(err)
	}
	compareQDMaps(t, "cascade refit", tableMap(cas.pairs, cas.alphas), refCascade(other, cas.LaplaceA, cas.LaplaceB))
}
