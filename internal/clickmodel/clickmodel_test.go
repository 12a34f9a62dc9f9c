package clickmodel

import (
	"math"
	"math/rand"
	"testing"
)

func TestSessionValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Session
		wantErr bool
	}{
		{"ok", Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{true}}, false},
		{"empty", Session{Query: "q"}, true},
		{"mismatch", Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.s.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSessionClickHelpers(t *testing.T) {
	s := Session{
		Docs:   []string{"a", "b", "c", "d"},
		Clicks: []bool{false, true, false, true},
	}
	if got := s.FirstClick(); got != 1 {
		t.Errorf("FirstClick = %d, want 1", got)
	}
	if got := s.LastClick(); got != 3 {
		t.Errorf("LastClick = %d, want 3", got)
	}
	empty := Session{Docs: []string{"a"}, Clicks: []bool{false}}
	if empty.FirstClick() != -1 || empty.LastClick() != -1 {
		t.Error("click helpers wrong on clickless session")
	}
}

// prevClickIndex returns, for each position of the session, the gamma
// column: 0 when no click precedes it, otherwise the 1-based position of
// the most recent preceding click. (Compile precomputes the same
// columns for every impression of a log.)
func prevClickIndex(s Session) []int {
	idx := make([]int, len(s.Docs))
	prev := 0
	for i := range s.Docs {
		idx[i] = prev
		if s.Clicks[i] {
			prev = i + 1
		}
	}
	return idx
}

func TestPrevClickIndex(t *testing.T) {
	s := Session{
		Docs:   []string{"a", "b", "c", "d"},
		Clicks: []bool{false, true, false, true},
	}
	got := prevClickIndex(s)
	want := []int{0, 0, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prevClickIndex = %v, want %v", got, want)
		}
	}
}

// --- simulators for recovery tests ---

const simDocs = 8

// fitSessions fits m on a session log the one way a caller does:
// Compile, then FitLog.
func fitSessions(m Model, sessions []Session) error {
	c, err := Compile(sessions)
	if err != nil {
		return err
	}
	return m.FitLog(c)
}

func docName(i int) string { return string(rune('a' + i)) }

// truthAlpha is the planted attractiveness of doc i (same for all queries).
func truthAlpha(i int) float64 { return 0.1 + 0.08*float64(i) }

func simulatePBM(rng *rand.Rand, n int, gamma []float64) []Session {
	out := make([]Session, n)
	for k := range out {
		docs := make([]string, len(gamma))
		clicks := make([]bool, len(gamma))
		perm := rng.Perm(simDocs)
		for i := range gamma {
			d := perm[i]
			docs[i] = docName(d)
			clicks[i] = rng.Float64() < gamma[i] && rng.Float64() < truthAlpha(d)
		}
		out[k] = Session{Query: "q", Docs: docs, Clicks: clicks}
	}
	return out
}

func simulateCascade(rng *rand.Rand, n, depth int) []Session {
	out := make([]Session, n)
	for k := range out {
		docs := make([]string, depth)
		clicks := make([]bool, depth)
		perm := rng.Perm(simDocs)
		for i := 0; i < depth; i++ {
			d := perm[i]
			docs[i] = docName(d)
			if rng.Float64() < truthAlpha(d) {
				clicks[i] = true
				break
			}
		}
		out[k] = Session{Query: "q", Docs: docs, Clicks: clicks}
	}
	return out
}

func simulateDBN(rng *rand.Rand, n, depth int, sat, gamma float64) []Session {
	out := make([]Session, n)
	for k := range out {
		docs := make([]string, depth)
		clicks := make([]bool, depth)
		perm := rng.Perm(simDocs)
		examining := true
		for i := 0; i < depth; i++ {
			d := perm[i]
			docs[i] = docName(d)
			if !examining {
				continue
			}
			if rng.Float64() < truthAlpha(d) {
				clicks[i] = true
				if rng.Float64() < sat {
					examining = false
					continue
				}
			}
			if rng.Float64() >= gamma {
				examining = false
			}
		}
		out[k] = Session{Query: "q", Docs: docs, Clicks: clicks}
	}
	return out
}

func TestPBMRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gamma := []float64{1.0, 0.7, 0.45, 0.3, 0.2}
	sessions := simulatePBM(rng, 30000, gamma)

	m := NewPBM()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	// PBM's (gamma, alpha) factorisation is identifiable only up to a
	// multiplicative constant; compare the products gamma_i*alpha_d via
	// the ratio of fitted to true gamma at position 0.
	scale := m.Gamma[0] / gamma[0]
	for i := range gamma {
		got := m.Gamma[i] / scale
		if math.Abs(got-gamma[i]) > 0.06 {
			t.Errorf("gamma[%d] = %.3f (rescaled), want %.3f", i, got, gamma[i])
		}
	}
	alpha := tableMap(m.pairs, m.alphas)
	for d := 0; d < simDocs; d++ {
		a, ok := alpha[qd{"q", docName(d)}]
		if !ok {
			t.Fatalf("no alpha for doc %s", docName(d))
		}
		if math.Abs(a*scale-truthAlpha(d)) > 0.06 {
			t.Errorf("alpha[%s] = %.3f (rescaled), want %.3f", docName(d), a*scale, truthAlpha(d))
		}
	}
}

func TestPBMGammaDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gamma := []float64{0.9, 0.6, 0.4, 0.25}
	m := NewPBM()
	if err := fitSessions(m, simulatePBM(rng, 10000, gamma)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m.Gamma); i++ {
		if m.Gamma[i] >= m.Gamma[i-1] {
			t.Errorf("fitted gamma not decreasing at %d: %v", i, m.Gamma)
		}
	}
}

func TestCascadeRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sessions := simulateCascade(rng, 30000, 5)
	m := NewCascade()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < simDocs; d++ {
		a := m.alpha(m.pairs.row("q"), docName(d))
		if math.Abs(a-truthAlpha(d)) > 0.05 {
			t.Errorf("alpha[%s] = %.3f, want %.3f", docName(d), a, truthAlpha(d))
		}
	}
}

func TestCascadeSingleClickLikelihood(t *testing.T) {
	m := NewCascade()
	m.pairs, m.alphas = pairTableOf([]qd{{"q", "a"}, {"q", "b"}}), []float64{0.3, 0.5}
	s := Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{false, true}}
	want := math.Log(0.7) + math.Log(0.5)
	if got := m.SessionLogLikelihood(s); math.Abs(got-want) > 1e-9 {
		t.Errorf("LL = %v, want %v", got, want)
	}
	// Multi-click sessions are impossible under cascade: hugely negative.
	multi := Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, true}}
	if got := m.SessionLogLikelihood(multi); got > math.Log(probEps)/2 {
		t.Errorf("multi-click LL = %v, want very negative", got)
	}
}

func TestDBNRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const sat, gamma = 0.6, 0.85
	sessions := simulateDBN(rng, 40000, 6, sat, gamma)
	m := NewDBN()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Gamma-gamma) > 0.08 {
		t.Errorf("gamma = %.3f, want %.3f", m.Gamma, gamma)
	}
	row := m.pairs.row("q")
	for d := 0; d < simDocs; d++ {
		a, s := m.as(row, "q", docName(d))
		if math.Abs(a-truthAlpha(d)) > 0.07 {
			t.Errorf("a[%s] = %.3f, want %.3f", docName(d), a, truthAlpha(d))
		}
		if math.Abs(s-sat) > 0.12 {
			t.Errorf("s[%s] = %.3f, want %.3f", docName(d), s, sat)
		}
	}
}

func TestSDBNClosedForm(t *testing.T) {
	// Two hand-built sessions: doc a clicked once in 2 examined
	// impressions, last click both times for b.
	sessions := []Session{
		{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, true}},
		{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{false, true}},
	}
	m := NewSDBN()
	m.LaplaceA, m.LaplaceB = 0, 0 // raw MLE for hand-checking
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	row := m.pairs.row("q")
	aa, sa := m.as(row, "a")
	ab, sb := m.as(row, "b")
	if math.Abs(aa-0.5) > 1e-9 {
		t.Errorf("a(a) = %v, want 0.5", aa)
	}
	if math.Abs(ab-1.0) > 1e-6 {
		t.Errorf("a(b) = %v, want 1", ab)
	}
	// a was clicked once, never as last click; b last-clicked 2/2.
	if sa > 1e-6 {
		t.Errorf("s(a) = %v, want 0", sa)
	}
	if math.Abs(sb-1.0) > 1e-6 {
		t.Errorf("s(b) = %v, want 1", sb)
	}
}

func TestUBMFitsAndScores(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sessions := simulateDBN(rng, 8000, 5, 0.5, 0.9)
	m := NewUBM()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions[:100] {
		probs := m.ClickProbsInto(s, nil)
		for i, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("ClickProbsInto[%d] = %v out of range", i, p)
			}
		}
		if ll := m.SessionLogLikelihood(s); math.IsNaN(ll) || ll > 0 {
			t.Fatalf("bad LL %v", ll)
		}
	}
	// Triangular gamma shape: row i has i+1 cells.
	for i, row := range m.Gamma {
		if len(row) != i+1 {
			t.Errorf("gamma row %d has %d cells, want %d", i, len(row), i+1)
		}
	}
}

func TestBBMPosteriorMean(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	sessions := simulatePBM(rng, 10000, []float64{1, 0.6, 0.35, 0.2})
	m := NewBBM()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	// Posterior means must be ordered like the planted attractiveness.
	prev := -1.0
	for d := 0; d < simDocs; d++ {
		pm := m.PosteriorMean("q", docName(d))
		if pm < 0 || pm > 1 {
			t.Fatalf("posterior mean out of range: %v", pm)
		}
		if pm <= prev {
			t.Errorf("posterior mean not increasing with planted relevance: doc %d %.3f <= %.3f", d, pm, prev)
		}
		prev = pm
	}
	if got := m.PosteriorMean("q", "unseen-doc"); got != 0.5 {
		t.Errorf("unseen doc posterior = %v, want prior 0.5", got)
	}
}

func TestCCMFitImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sessions := simulateDBN(rng, 10000, 5, 0.5, 0.85)
	m := NewCCM()
	m.Iterations = 1
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	ll1 := Evaluate(m, sessions).LogLikelihood
	m2 := NewCCM()
	m2.Iterations = 15
	if err := fitSessions(m2, sessions); err != nil {
		t.Fatal(err)
	}
	ll15 := Evaluate(m2, sessions).LogLikelihood
	if ll15 < ll1-1e-6 {
		t.Errorf("more EM iterations decreased LL: %v -> %v", ll1, ll15)
	}
	if m2.Alpha1 <= 0 || m2.Alpha1 >= 1 || m2.Alpha2 <= 0 || m2.Alpha3 >= 1 {
		t.Errorf("alphas left their domain: %v %v %v", m2.Alpha1, m2.Alpha2, m2.Alpha3)
	}
}

func TestGCMSubsumesDCMShape(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sessions := simulateDBN(rng, 15000, 5, 0.55, 0.9)
	m := NewGCM()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	// Relevance ordering must match the planted attractiveness ordering.
	for d := 1; d < simDocs; d++ {
		if row := m.pairs.row("q"); m.r(row, docName(d)) <= m.r(row, docName(d-1)) {
			t.Errorf("relevance ordering violated at doc %d", d)
		}
	}
}

func TestAllModelsFitAndEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	train := simulateDBN(rng, 6000, 5, 0.5, 0.85)
	test := simulateDBN(rng, 2000, 5, 0.5, 0.85)
	for _, m := range allModels(t) {
		t.Run(m.Name(), func(t *testing.T) {
			if err := fitSessions(m, train); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			ev := Evaluate(m, test)
			if math.IsNaN(ev.LogLikelihood) || ev.LogLikelihood > 0 {
				t.Errorf("bad mean LL %v", ev.LogLikelihood)
			}
			if ev.Perplexity < 1 {
				t.Errorf("perplexity %v < 1", ev.Perplexity)
			}
			if ev.Perplexity > 2.2 {
				t.Errorf("perplexity %v absurdly high for a fitted model", ev.Perplexity)
			}
			for _, s := range test[:50] {
				for i, p := range m.ClickProbsInto(s, nil) {
					if p < 0 || p > 1 || math.IsNaN(p) {
						t.Fatalf("%s ClickProbsInto[%d] = %v", m.Name(), i, p)
					}
				}
			}
		})
	}
}

func TestFitRejectsBadLogs(t *testing.T) {
	bad := []Session{{Query: "q", Docs: []string{"a"}, Clicks: nil}}
	for _, m := range allModels(t) {
		if err := fitSessions(m, nil); err == nil {
			t.Errorf("%s accepted empty log", m.Name())
		}
		if err := fitSessions(m, bad); err == nil {
			t.Errorf("%s accepted malformed session", m.Name())
		}
	}
}

func TestMeanCTRByPosition(t *testing.T) {
	sessions := []Session{
		{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, false}},
		{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, true}},
		{Query: "q", Docs: []string{"a"}, Clicks: []bool{false}},
	}
	got := MeanCTRByPosition(sessions)
	want := []float64{2.0 / 3.0, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("position %d CTR = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPerplexityPerfectAndRandom(t *testing.T) {
	// A model predicting the empirical CTR at a position where all
	// sessions agree should approach perplexity 1; predicting 0.5
	// everywhere gives exactly 2.
	sessions := []Session{
		{Query: "q", Docs: []string{"a"}, Clicks: []bool{false}},
		{Query: "q", Docs: []string{"a"}, Clicks: []bool{false}},
	}
	// SUM predicts its per-position base rate: one position at p is a
	// constant p everywhere.
	half := &SUM{baseCTR: []float64{0.5}}
	overall := Evaluate(half, sessions).Perplexity
	if math.Abs(overall-2) > 1e-9 {
		t.Errorf("coin-flip perplexity = %v, want 2", overall)
	}
	sharp := &SUM{baseCTR: []float64{probEps}}
	overall = Evaluate(sharp, sessions).Perplexity
	if overall > 1.001 {
		t.Errorf("near-perfect perplexity = %v, want ~1", overall)
	}
}

func BenchmarkPBMFit(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	sessions := simulatePBM(rng, 5000, []float64{1, 0.6, 0.35, 0.2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPBM()
		m.Iterations = 5
		if err := fitSessions(m, sessions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBNFit(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	sessions := simulateDBN(rng, 5000, 5, 0.5, 0.85)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewDBN()
		m.Iterations = 5
		if err := fitSessions(m, sessions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUBMClickProbs(b *testing.B) {
	rng := rand.New(rand.NewSource(52))
	sessions := simulateDBN(rng, 2000, 8, 0.5, 0.85)
	m := NewUBM()
	m.Iterations = 5
	if err := fitSessions(m, sessions); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ClickProbsInto(sessions[i%len(sessions)], nil)
	}
}
