package snippet

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitBetaPriorRecovers(t *testing.T) {
	// Creatives with true CTRs drawn from Beta(4, 36) (mean 0.1),
	// observed through binomial sampling.
	rng := rand.New(rand.NewSource(1))
	const a, b = 4.0, 36.0
	var stats []Stats
	for i := 0; i < 3000; i++ {
		// Beta draw via two gammas.
		x := gammaDraw(rng, a)
		y := gammaDraw(rng, b)
		ctr := x / (x + y)
		n := int64(500 + rng.Intn(1500))
		clicks := int64(0)
		for k := int64(0); k < n; k++ {
			if rng.Float64() < ctr {
				clicks++
			}
		}
		stats = append(stats, Stats{Impressions: n, Clicks: clicks})
	}
	prior := FitBetaPrior(stats, 100)
	if math.Abs(prior.PriorMean()-0.1) > 0.01 {
		t.Errorf("prior mean = %v, want ~0.1", prior.PriorMean())
	}
	// Concentration a+b should be in the right ballpark (40).
	k := prior.Alpha + prior.Beta
	if k < 15 || k > 120 {
		t.Errorf("prior concentration = %v, want near 40", k)
	}
}

// gammaDraw samples Gamma(shape, 1) via Marsaglia-Tsang for shape >= 1.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

func TestFitBetaPriorDegenerate(t *testing.T) {
	// Too few creatives: fall back to the weak prior.
	p := FitBetaPrior([]Stats{{100, 10}}, 1)
	if p.Alpha != 1 || p.Beta != 9 {
		t.Errorf("fallback prior = %+v", p)
	}
	// No qualifying creatives at all.
	p = FitBetaPrior(nil, 1)
	if p.PriorMean() != 0.1 {
		t.Errorf("empty fallback mean = %v", p.PriorMean())
	}
}

func TestShrinkMovesTowardPrior(t *testing.T) {
	p := BetaPrior{Alpha: 10, Beta: 90} // mean 0.1
	// A lightly served creative with a lucky streak.
	lucky := Stats{Impressions: 10, Clicks: 5} // raw CTR 0.5
	shrunk := p.Shrink(lucky)
	if shrunk >= 0.2 {
		t.Errorf("light evidence should shrink hard: %v", shrunk)
	}
	// A heavily served creative keeps its CTR.
	heavy := Stats{Impressions: 100000, Clicks: 50000}
	if got := p.Shrink(heavy); math.Abs(got-0.5) > 0.01 {
		t.Errorf("heavy evidence should dominate: %v", got)
	}
}
