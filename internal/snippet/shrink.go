package snippet

import "math"

// BetaPrior is an empirical-Bayes prior over creative CTRs, fitted to a
// population of creatives by the method of moments on a beta-binomial
// model. Shrinking raw CTRs towards the population mean stabilises the
// serve weights of lightly served creatives — the practical antidote to
// the finite-sample noise that dominates pair labels at low impression
// counts.
type BetaPrior struct {
	Alpha, Beta float64
}

// FitBetaPrior estimates the prior from observed creative stats by
// matching the mean and variance of the per-creative CTRs, correcting
// the variance for binomial sampling noise. Creatives with fewer than
// minImpressions are ignored. Returns a weak uniform-ish prior when the
// data cannot identify one.
func FitBetaPrior(stats []Stats, minImpressions int64) BetaPrior {
	var ctrs []float64
	var ns []float64
	for _, s := range stats {
		if s.Impressions >= minImpressions && s.Impressions > 0 {
			ctrs = append(ctrs, s.CTR())
			ns = append(ns, float64(s.Impressions))
		}
	}
	fallback := BetaPrior{Alpha: 1, Beta: 9} // weak prior around 10% CTR
	if len(ctrs) < 2 {
		return fallback
	}
	var mean float64
	for _, c := range ctrs {
		mean += c
	}
	mean /= float64(len(ctrs))
	if mean <= 0 || mean >= 1 {
		return fallback
	}
	var varObs, invN float64
	for i, c := range ctrs {
		varObs += (c - mean) * (c - mean)
		invN += 1 / ns[i]
	}
	varObs /= float64(len(ctrs))
	invN /= float64(len(ctrs))

	// Observed variance = true CTR variance + mean binomial noise.
	noise := mean * (1 - mean) * invN
	varTrue := varObs - noise
	if varTrue <= 0 {
		// CTRs are statistically indistinguishable: shrink hard.
		varTrue = noise / 100
	}
	// Method of moments for Beta(a, b):
	// var = m(1-m)/(a+b+1)  =>  a+b = m(1-m)/var - 1.
	k := mean*(1-mean)/varTrue - 1
	if k <= 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return fallback
	}
	return BetaPrior{Alpha: mean * k, Beta: (1 - mean) * k}
}

// Shrink returns the posterior-mean CTR of a creative under the prior:
// (clicks + alpha) / (impressions + alpha + beta).
func (p BetaPrior) Shrink(s Stats) float64 {
	return (float64(s.Clicks) + p.Alpha) / (float64(s.Impressions) + p.Alpha + p.Beta)
}

// PriorMean returns the prior's mean CTR.
func (p BetaPrior) PriorMean() float64 { return p.Alpha / (p.Alpha + p.Beta) }
