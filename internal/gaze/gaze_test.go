package gaze

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coreref"
	"repro/internal/textproc"
)

// The likelihood, the posterior and sampling are the tests' view of a
// model: production fits one (Fit) and decodes with it (Viterbi).

// LogLikelihood returns log P(obs) under the model.
func (h *HMM) LogLikelihood(obs []int) float64 {
	if len(obs) == 0 {
		return 0
	}
	_, _, ll := h.forward(obs)
	return ll
}

// Posterior returns P(state i at t | obs) for every t.
func (h *HMM) Posterior(obs []int) [][]float64 {
	if len(obs) == 0 {
		return nil
	}
	alpha, scale, _ := h.forward(obs)
	beta := h.backward(obs, scale)
	k := len(h.Init)
	post := make([][]float64, len(obs))
	for t := range obs {
		post[t] = make([]float64, k)
		var z float64
		for i := 0; i < k; i++ {
			post[t][i] = alpha[t][i] * beta[t][i]
			z += post[t][i]
		}
		if z > 0 {
			for i := 0; i < k; i++ {
				post[t][i] /= z
			}
		}
	}
	return post
}

// Sample draws an observation sequence of length n from the model.
func (h *HMM) Sample(rng *rand.Rand, n int) (obs, states []int) {
	obs = make([]int, n)
	states = make([]int, n)
	draw := func(p []float64) int {
		u := rng.Float64()
		acc := 0.0
		for i, v := range p {
			acc += v
			if u < acc {
				return i
			}
		}
		return len(p) - 1
	}
	st := draw(h.Init)
	for t := 0; t < n; t++ {
		states[t] = st
		obs[t] = draw(h.Emit[st])
		if t < n-1 {
			st = draw(h.Trans[st])
		}
	}
	return obs, states
}

func TestHMMValidate(t *testing.T) {
	h := NewHMM(2, 3)
	if err := h.Validate(); err != nil {
		t.Fatalf("fresh HMM invalid: %v", err)
	}
	h.Init[0] = 2
	if err := h.Validate(); err == nil {
		t.Error("unnormalised init accepted")
	}
	bad := &HMM{Init: []float64{1}, Trans: [][]float64{{1}}, Emit: [][]float64{{-0.5, 1.5}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative emission accepted")
	}
}

func TestHMMForwardBackwardConsistency(t *testing.T) {
	// Posterior columns must sum to one, and LogLikelihood must be
	// finite and negative for a non-degenerate model.
	h := NewHMM(2, 4)
	h.Emit[0] = []float64{0.7, 0.1, 0.1, 0.1}
	h.Emit[1] = []float64{0.1, 0.1, 0.1, 0.7}
	h.Trans[0] = []float64{0.8, 0.2}
	h.Trans[1] = []float64{0.3, 0.7}

	obs := []int{0, 0, 3, 3, 3, 0}
	post := h.Posterior(obs)
	for t2, row := range post {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("posterior at %d sums to %v", t2, sum)
		}
	}
	ll := h.LogLikelihood(obs)
	if ll >= 0 || math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Errorf("LogLikelihood = %v", ll)
	}
	// First observations are state-0-typical; posterior must say so.
	if post[0][0] < 0.5 {
		t.Errorf("posterior[0] = %v, want state 0 dominant", post[0])
	}
	if post[3][1] < 0.5 {
		t.Errorf("posterior[3] = %v, want state 1 dominant", post[3])
	}
}

func TestHMMViterbiMatchesObviousSegmentation(t *testing.T) {
	h := NewHMM(2, 2)
	h.Emit[0] = []float64{0.9, 0.1}
	h.Emit[1] = []float64{0.1, 0.9}
	h.Trans[0] = []float64{0.9, 0.1}
	h.Trans[1] = []float64{0.1, 0.9}
	obs := []int{0, 0, 0, 1, 1, 1}
	path := h.Viterbi(obs)
	want := []int{0, 0, 0, 1, 1, 1}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("Viterbi = %v, want %v", path, want)
		}
	}
}

func TestBaumWelchRecovery(t *testing.T) {
	// Plant a two-state model, sample sequences, refit, and check the
	// held-out likelihood of the fitted model approaches the truth's.
	rng := rand.New(rand.NewSource(5))
	truth := NewHMM(2, 3)
	truth.Init = []float64{0.8, 0.2}
	truth.Trans = [][]float64{{0.85, 0.15}, {0.25, 0.75}}
	truth.Emit = [][]float64{{0.7, 0.2, 0.1}, {0.1, 0.3, 0.6}}

	var train, test [][]int
	for i := 0; i < 300; i++ {
		obs, _ := truth.Sample(rng, 30)
		if i < 250 {
			train = append(train, obs)
		} else {
			test = append(test, obs)
		}
	}

	fitted := NewHMM(2, 3)
	// Perturb to break symmetry.
	fitted.Emit = [][]float64{{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}}
	if _, err := fitted.Fit(train, 100, 1e-6); err != nil {
		t.Fatal(err)
	}

	var llTruth, llFit float64
	for _, obs := range test {
		llTruth += truth.LogLikelihood(obs)
		llFit += fitted.LogLikelihood(obs)
	}
	// The fitted model should be close to the generating one (within a
	// few percent of total held-out log-likelihood).
	if llFit < llTruth*1.03 { // both negative: fitted may be at most 3% worse
		t.Errorf("held-out LL: fitted %v vs truth %v", llFit, llTruth)
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	truth := NewHMM(2, 3)
	truth.Emit = [][]float64{{0.8, 0.1, 0.1}, {0.1, 0.1, 0.8}}
	truth.Trans = [][]float64{{0.7, 0.3}, {0.3, 0.7}}
	var seqs [][]int
	for i := 0; i < 100; i++ {
		obs, _ := truth.Sample(rng, 20)
		seqs = append(seqs, obs)
	}
	one := NewHMM(2, 3)
	one.Emit = [][]float64{{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}}
	ll1, err := one.Fit(seqs, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	many := NewHMM(2, 3)
	many.Emit = [][]float64{{0.5, 0.3, 0.2}, {0.2, 0.3, 0.5}}
	ll50, err := many.Fit(seqs, 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ll50 < ll1-1e-6 {
		t.Errorf("EM decreased LL: %v -> %v", ll1, ll50)
	}
}

func TestHMMFitValidation(t *testing.T) {
	h := NewHMM(2, 2)
	if _, err := h.Fit(nil, 10, 0); err == nil {
		t.Error("empty training set accepted")
	}
}

func studyAttention() core.GeometricAttention {
	return core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8}
}

func TestFixationRatesMatchAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	study := NewStudy(studyAttention(), 3, 5)
	rates := study.FixationRates(rng, 20000)
	att := studyAttention()
	for line := 1; line <= 3; line++ {
		for pos := 1; pos <= 5; pos++ {
			want := att.Examine(line, pos)
			got := rates[line-1][pos-1]
			if math.Abs(got-want) > 0.02 {
				t.Errorf("rate(%d,%d) = %.3f, want %.3f", line, pos, got, want)
			}
		}
	}
}

func TestAttentionFromRatesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	study := NewStudy(studyAttention(), 2, 4)
	rates := study.FixationRates(rng, 20000)
	att := AttentionFromRates(rates)
	// The recovered attention must preserve the within-line decay.
	for pos := 2; pos <= 4; pos++ {
		if att.Examine(1, pos) >= att.Examine(1, pos-1) {
			t.Errorf("recovered attention not decaying at pos %d", pos)
		}
	}
	// And feed cleanly into a micro-browsing model.
	m := core.NewModel(att)
	m.Relevance["deal"] = 0.9
	terms := textproc.ExtractTerms([]string{"deal deal deal deal"}, 1)
	if s := coreref.ExpectedScore(m, terms); s >= 0 {
		t.Errorf("expected negative log-relevance score, got %v", s)
	}
}

func TestStudyFitHMM(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	study := NewStudy(studyAttention(), 2, 4)
	h, ll, err := study.FitHMM(rng, 400, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || ll >= 0 {
		t.Errorf("training LL = %v", ll)
	}
	if err := h.Validate(); err != nil {
		t.Errorf("fitted HMM invalid: %v", err)
	}
	// Early-grid symbols must be likelier than late-grid ones under the
	// fitted marginal emission (attention decays).
	marginal := make([]float64, 8)
	for i := range h.Emit {
		for o, p := range h.Emit[i] {
			marginal[o] += p * h.Init[i]
		}
	}
	if marginal[0] <= marginal[3] {
		t.Errorf("fitted emissions do not favour early positions: %v", marginal)
	}
}

func TestCorrelateWithTerms(t *testing.T) {
	rates := [][]float64{{0.9, 0.5}, {0.3, 0.1}}
	terms := textproc.ExtractTerms([]string{"big sale", "act now"}, 1)
	corr := CorrelateWithTerms(rates, terms)
	if corr["big:1:1"] != 0.9 {
		t.Errorf(`corr["big:1:1"] = %v, want 0.9`, corr["big:1:1"])
	}
	if corr["now:2:2"] != 0.1 {
		t.Errorf(`corr["now:2:2"] = %v, want 0.1`, corr["now:2:2"])
	}
}

func TestSampleRespectsEmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	h := NewHMM(1, 2)
	h.Emit[0] = []float64{0.25, 0.75}
	obs, states := h.Sample(rng, 10000)
	if len(states) != 10000 {
		t.Fatal("wrong state path length")
	}
	ones := 0
	for _, o := range obs {
		if o == 1 {
			ones++
		}
	}
	if frac := float64(ones) / 10000; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("symbol 1 frequency %.3f, want 0.75", frac)
	}
}

func BenchmarkBaumWelch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	truth := NewHMM(2, 6)
	truth.Emit = [][]float64{
		{0.4, 0.3, 0.1, 0.1, 0.05, 0.05},
		{0.05, 0.05, 0.1, 0.1, 0.3, 0.4},
	}
	var seqs [][]int
	for i := 0; i < 50; i++ {
		obs, _ := truth.Sample(rng, 25)
		seqs = append(seqs, obs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHMM(2, 6)
		h.Emit[0][0] += 0.01
		h.Emit[0][5] -= 0.01
		if _, err := h.Fit(seqs, 10, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
