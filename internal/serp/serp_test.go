package serp

import (
	"math"
	"testing"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/core/coreref"
	"repro/internal/ml"
)

func testCorpus(groups int) *adcorpus.Corpus {
	return adcorpus.Generate(adcorpus.Config{Seed: 100, Groups: groups}, adcorpus.DefaultLexicon())
}

func TestMarginalClickProbMatchesMonteCarlo(t *testing.T) {
	corpus := testCorpus(5)
	sim := New(Config{Seed: 1})
	c := &corpus.Groups[0].Creatives[0]

	exact := sim.MarginalClickProb(c)
	const n = 200000
	clicks := 0
	mc := New(Config{Seed: 2})
	for i := 0; i < n; i++ {
		if mc.microClick(c) {
			clicks++
		}
	}
	got := float64(clicks) / n
	if math.Abs(got-exact) > 0.005 {
		t.Errorf("Monte Carlo CTR %.4f vs exact %.4f", got, exact)
	}
}

func TestRunFillsStats(t *testing.T) {
	corpus := testCorpus(30)
	sim := New(Config{Seed: 3, Impressions: 1000})
	groups := sim.Run(corpus)
	if len(groups) != 30 {
		t.Fatalf("got %d groups", len(groups))
	}
	for _, g := range groups {
		if len(g.Creatives) != len(g.Stats) {
			t.Fatalf("group %s stats not parallel to creatives", g.ID)
		}
		for i, st := range g.Stats {
			if st.Impressions != 1000 {
				t.Errorf("creative %s impressions = %d", g.Creatives[i].ID, st.Impressions)
			}
			if st.Clicks < 0 || st.Clicks > st.Impressions {
				t.Errorf("creative %s clicks = %d", g.Creatives[i].ID, st.Clicks)
			}
		}
	}
}

func TestTopCTRExceedsRHS(t *testing.T) {
	corpus := testCorpus(40)
	top := New(Config{Seed: 4, Impressions: 2000, Placement: Top}).Run(corpus)
	rhs := New(Config{Seed: 4, Impressions: 2000, Placement: RHS}).Run(corpus)

	var topClicks, topImps, rhsClicks, rhsImps int64
	for _, g := range top {
		for _, st := range g.Stats {
			topClicks += st.Clicks
			topImps += st.Impressions
		}
	}
	for _, g := range rhs {
		for _, st := range g.Stats {
			rhsClicks += st.Clicks
			rhsImps += st.Impressions
		}
	}
	topCTR := float64(topClicks) / float64(topImps)
	rhsCTR := float64(rhsClicks) / float64(rhsImps)
	if topCTR <= rhsCTR*1.5 {
		t.Errorf("top CTR %.4f should clearly exceed rhs CTR %.4f", topCTR, rhsCTR)
	}
}

func TestServeWeightTracksAppeal(t *testing.T) {
	// Within each group, the creative with the higher exact expected CTR
	// should usually win the empirical serve weight.
	corpus := testCorpus(150)
	sim := New(Config{Seed: 5, Impressions: 6000})
	groups := sim.Run(corpus)

	oracle := New(Config{Seed: 6})
	wins, total := 0, 0
	for gi, g := range groups {
		pairs := g.Pairs(1)
		gen := corpus.Groups[gi]
		byID := make(map[string]*adcorpus.Creative)
		for ci := range gen.Creatives {
			byID[gen.Creatives[ci].ID] = &gen.Creatives[ci]
		}
		for _, p := range pairs {
			pr := oracle.MarginalClickProb(byID[p.R.ID])
			ps := oracle.MarginalClickProb(byID[p.S.ID])
			if math.Abs(pr-ps) < 0.01 {
				continue // too close to call; skip near-ties
			}
			total++
			if (pr > ps) == (p.Label() > 0) {
				wins++
			}
		}
	}
	if total == 0 {
		t.Fatal("no decisive pairs generated")
	}
	rate := float64(wins) / float64(total)
	if rate < 0.8 {
		t.Errorf("serve weight agrees with true CTR on %.1f%% of decisive pairs, want >= 80%%", rate*100)
	}
}

func TestSessionsValidAndFitPBM(t *testing.T) {
	corpus := testCorpus(50)
	sim := New(Config{Seed: 7})
	sessions := sim.Sessions(corpus, 5000, 4)
	if len(sessions) != 5000 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	for _, s := range sessions {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	m := clickmodel.NewPBM()
	m.Iterations = 10
	c, err := clickmodel.Compile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FitLog(c); err != nil {
		t.Fatal(err)
	}
	// The macro curve decays, so the fitted gammas must decay too.
	for i := 1; i < len(m.Gamma); i++ {
		if m.Gamma[i] >= m.Gamma[i-1] {
			t.Errorf("fitted macro gamma not decreasing: %v", m.Gamma)
		}
	}
}

func TestTrueModelPrefersAppeal(t *testing.T) {
	lex := adcorpus.DefaultLexicon()
	sim := New(Config{Seed: 8})
	m := sim.TrueModel(lex)
	// "20% off" (appeal 1.2) must have higher relevance than
	// "terms apply" (appeal -0.6).
	if coreref.TermRelevance(m, "20% off") <= coreref.TermRelevance(m, "terms apply") {
		t.Error("true model lost the appeal ordering")
	}
	if got := coreref.TermRelevance(m, "20% off"); math.Abs(got-ml.Sigmoid(1.2)) > 1e-12 {
		t.Errorf("relevance mapping = %v, want sigmoid(appeal)", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	corpus := testCorpus(10)
	a := New(Config{Seed: 11, Impressions: 500}).Run(corpus)
	b := New(Config{Seed: 11, Impressions: 500}).Run(corpus)
	for i := range a {
		for j := range a[i].Stats {
			if a[i].Stats[j] != b[i].Stats[j] {
				t.Fatal("same seed produced different stats")
			}
		}
	}
}

func BenchmarkRun(b *testing.B) {
	corpus := testCorpus(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(Config{Seed: int64(i), Impressions: 200}).Run(corpus)
	}
}

func BenchmarkMarginalClickProb(b *testing.B) {
	corpus := testCorpus(5)
	sim := New(Config{Seed: 1})
	c := &corpus.Groups[0].Creatives[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MarginalClickProb(c)
	}
}

// TestSessionStreamParity: the streaming one-at-a-time generator and
// the batch Sessions call draw identical traffic for identical seeds —
// a load generator replaying Session against the feedback API produces
// the same log an offline fit would see.
func TestSessionStreamParity(t *testing.T) {
	corpus := adcorpus.Generate(adcorpus.Config{Seed: 3, Groups: 40}, adcorpus.DefaultLexicon())
	batch := New(Config{Seed: 9}).Sessions(corpus, 200, 4)
	streaming := New(Config{Seed: 9})
	for i, want := range batch {
		got := streaming.Session(corpus, 4)
		if got.Query != want.Query || len(got.Docs) != len(want.Docs) {
			t.Fatalf("session %d diverged: %+v vs %+v", i, got, want)
		}
		for j := range want.Docs {
			if got.Docs[j] != want.Docs[j] || got.Clicks[j] != want.Clicks[j] {
				t.Fatalf("session %d slot %d diverged: %+v vs %+v", i, j, got, want)
			}
		}
	}
}

// TestSnippetFeedback: the micro feedback generator stays within its
// impression budget and points at real creative text.
func TestSnippetFeedback(t *testing.T) {
	corpus := adcorpus.Generate(adcorpus.Config{Seed: 4, Groups: 20}, adcorpus.DefaultLexicon())
	sim := New(Config{Seed: 11})
	for i := 0; i < 50; i++ {
		lines, clicks := sim.SnippetFeedback(corpus, 40)
		if len(lines) == 0 {
			t.Fatal("snippet feedback without lines")
		}
		if clicks < 0 || clicks > 40 {
			t.Fatalf("clicks %d outside [0, 40]", clicks)
		}
	}
}
