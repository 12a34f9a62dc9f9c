package microbrowsing_test

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	micro "repro"
	"repro/internal/classifier"
	"repro/internal/core/coreref"
)

// TestFacadeEndToEnd walks the public API through the whole story: build
// a micro-browsing model, score snippets, simulate a corpus, train a
// classifier, and predict an unseen pair.
func TestFacadeEndToEnd(t *testing.T) {
	// 1. Hand-built micro-browsing model.
	model := micro.NewModel(micro.GeometricAttention{
		LineWeights: []float64{0.9, 0.6, 0.3},
		Decay:       0.8,
	})
	model.Relevance["find cheap"] = 0.85
	model.Relevance["learn more"] = 0.30

	r, err := micro.NewCreative("r", "Acme", "Find cheap flights", "Great rates")
	if err != nil {
		t.Fatal(err)
	}
	s, err := micro.NewCreative("s", "Acme", "Learn more flights", "Great rates")
	if err != nil {
		t.Fatal(err)
	}
	score := coreref.ScorePair(model,
		micro.ExtractTerms(r.Lines, 2),
		micro.ExtractTerms(s.Lines, 2))
	if score <= 0 {
		t.Errorf("snippet with the stronger hook should win: score %v", score)
	}

	// 2. Simulated corpus through the public constructors.
	corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 3, Groups: 250}, micro.DefaultLexicon())
	sim := micro.NewSimulator(micro.SimConfig{Seed: 4, Impressions: 600})
	groups := sim.Run(corpus)

	ex := micro.NewExtractor()
	pairs := ex.Pairs(groups)
	if len(pairs) == 0 {
		t.Fatal("no pairs from simulation")
	}
	db := ex.BuildDB(groups)

	// 3. Train M6 and score an unseen pair.
	pipe := micro.NewPipeline(micro.M6, db)
	ds := pipe.Dataset(pairs)
	trained, err := classifier.Train(ds, nil, micro.ClassifierOptions{Epochs: 30, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := trained.PredictPair(pipe, micro.CreativePair{R: r, S: s})
	if math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("PredictPair = %v", p)
	}

	// 4. Click models through the facade: compile the log once and fit
	// by name with an EM iteration count.
	sessions := sim.Sessions(corpus, 2000, 4)
	train, err := micro.CompileSessions(sessions)
	if err != nil {
		t.Fatal(err)
	}
	pbm, err := micro.NewEngine().Fit("pbm", train, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev := micro.EvaluateClickModel(pbm, sessions)
	if ev.Perplexity < 1 {
		t.Errorf("perplexity %v < 1", ev.Perplexity)
	}

	// 5. Snapshot round-trip through the facade: the fitted model
	// serializes and restores to identical predictions.
	var artifact bytes.Buffer
	if err := pbm.Save(&artifact); err != nil {
		t.Fatal(err)
	}
	restored, err := micro.LoadClickModel(&artifact)
	if err != nil {
		t.Fatal(err)
	}
	want, got := pbm.ClickProbsInto(sessions[0], nil), restored.ClickProbsInto(sessions[0], nil)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Errorf("pos %d: restored %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFacadeSpecs(t *testing.T) {
	specs := []classifier.ModelSpec{micro.M1, micro.M2, micro.M3, micro.M4, micro.M5, micro.M6}
	if !slices.Equal(specs, classifier.Specs()) || specs[0].Name != "M1" || specs[5].Name != "M6" {
		t.Errorf("M1..M6 = %v, want Table 2's specs %v", specs, classifier.Specs())
	}
	names := micro.ClickModelNames()
	if len(names) != 10 {
		t.Errorf("ClickModelNames returned %d models, want 10", len(names))
	}
	for _, name := range names {
		if m, err := micro.NewClickModel(name); err != nil || !strings.EqualFold(m.Name(), name) {
			t.Errorf("NewClickModel(%q) = %v, %v", name, m, err)
		}
	}
}

// TestFacadeEngine exercises the unified scoring engine through the
// facade: registry-driven model selection, Fit, and a mixed macro +
// micro batch with the deprecated constructors nowhere in sight.
func TestFacadeEngine(t *testing.T) {
	names := micro.ClickModelNames()
	if len(names) != 10 || names[0] != "pbm" {
		t.Fatalf("ClickModelNames() = %v", names)
	}
	if _, err := micro.NewClickModel("no-such-model"); err == nil {
		t.Error("NewClickModel accepted an unknown name")
	}

	lex := micro.DefaultLexicon()
	corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 9, Groups: 150}, lex)
	sim := micro.NewSimulator(micro.SimConfig{Seed: 10})
	sessions := sim.Sessions(corpus, 2000, 4)

	eng := micro.NewEngine(micro.WithWorkers(2), micro.WithDefaultModel("sdbn"))
	eng.UseMicro(sim.TrueModel(lex))
	train, err := micro.CompileSessions(sessions[:1500])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Fit("sdbn", train, 0); err != nil {
		t.Fatal(err)
	}

	c := &corpus.Groups[0].Creatives[0]
	reqs := []micro.ScoreRequest{
		{ID: "macro", Session: &sessions[1500]},
		{ID: "micro", Model: micro.ModelMicro, Lines: c.Lines},
	}
	resps := eng.ScoreBatch(context.Background(), reqs)
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("resp %d: %v", i, resp.Err)
		}
		if resp.CTR <= 0 || resp.CTR >= 1 {
			t.Errorf("resp %q: CTR %v outside (0,1)", resp.ID, resp.CTR)
		}
	}
	if len(resps[0].Positions) != 4 {
		t.Errorf("macro response has %d positions, want 4", len(resps[0].Positions))
	}
	if resps[1].Score >= 0 {
		t.Errorf("micro expected log-prob should be negative: %v", resps[1].Score)
	}
}

func TestFacadeCrossValidate(t *testing.T) {
	corpus := micro.GenerateCorpus(micro.CorpusConfig{Seed: 5, Groups: 200}, micro.DefaultLexicon())
	groups := micro.NewSimulator(micro.SimConfig{Seed: 6, Impressions: 600}).Run(corpus)
	ex := micro.NewExtractor()
	pairs := ex.Pairs(groups)
	db := ex.BuildDB(groups)
	res, err := classifier.CrossValidate(micro.M1, pairs, db, 3, 1,
		micro.ClassifierOptions{Epochs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean.Accuracy <= 0.4 {
		t.Errorf("facade CV accuracy %v", res.Mean.Accuracy)
	}
}
