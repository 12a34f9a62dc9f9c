package classifier

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adcorpus"
	"repro/internal/featstats"
	"repro/internal/ml"
	"repro/internal/serp"
	"repro/internal/snippet"
)

// buildTestData simulates a small corpus and returns pairs + stats DB.
func buildTestData(t testing.TB, groups, impressions int) ([]snippet.Pair, *featstats.DB) {
	t.Helper()
	corpus := adcorpus.Generate(adcorpus.Config{Seed: 42, Groups: groups}, adcorpus.DefaultLexicon())
	sim := serp.New(serp.Config{Seed: 43, Impressions: impressions})
	ags := sim.Run(corpus)
	ex := NewExtractor()
	pairs := ex.Pairs(ags)
	if len(pairs) == 0 {
		t.Fatal("no pairs generated")
	}
	return pairs, ex.BuildDB(ags)
}

func TestSpecs(t *testing.T) {
	specs := Specs()
	if len(specs) != 6 {
		t.Fatalf("got %d specs", len(specs))
	}
	if !specs[5].UseTerms || !specs[5].UseRewrites || !specs[5].UsePosition {
		t.Error("M6 must enable everything")
	}
	if specs[0].UsePosition || specs[0].UseRewrites {
		t.Error("M1 must be terms-only")
	}
	for _, s := range specs {
		if !s.UseStatsInit {
			t.Errorf("%s must use stats initialisation", s.Name)
		}
	}
}

func TestBuildDBLearnsAppealDirections(t *testing.T) {
	pairs, db := buildTestData(t, 400, 4000)
	_ = pairs
	// "20% off" has the highest planted appeal; creatives containing it
	// should win their pairs more often than not.
	if p := db.P(featstats.TermKey("20% off")); p <= 0.5 {
		t.Errorf(`P(term "20%% off") = %.3f, want > 0.5`, p)
	}
	// "learn more" has negative appeal.
	if p := db.P(featstats.TermKey("learn more")); p >= 0.5 {
		t.Errorf(`P(term "learn more") = %.3f, want < 0.5`, p)
	}
	// Directed rewrite: replacing "20% off" with "learn more" hurts, so
	// the creative containing the source side should win.
	k := featstats.RewriteKey("20% off", "learn more")
	if db.Count(k) > 0 {
		if p := db.P(k); p <= 0.5 {
			t.Errorf("P(rewrite 20%% off -> learn more) = %.3f, want > 0.5", p)
		}
	}
}

func TestBuildDBPositionStats(t *testing.T) {
	_, db := buildTestData(t, 300, 4000)
	// Position keys must exist for line 2 (hooks live there).
	found := false
	for key := range db.Stats {
		if _, line, ok := featstats.ParsePosKey(key); ok && line == 2 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no line-2 position statistics collected")
	}
}

func TestOccurrencesPerSpec(t *testing.T) {
	pairs, db := buildTestData(t, 100, 3000)

	// Find a pair with a hook rewrite (differing line 2).
	var pick *snippet.Pair
	for i := range pairs {
		if !pairs[i].R.Equal(pairs[i].S) {
			pick = &pairs[i]
			break
		}
	}
	if pick == nil {
		t.Fatal("no differing pair found")
	}

	kinds := func(spec ModelSpec) map[string]int {
		p := NewPipeline(spec, db)
		counts := make(map[string]int)
		for _, o := range p.occurrences(*pick) {
			kind, _, _ := strings.Cut(o.relKey, "|") // the key's namespace
			counts[kind]++
		}
		return counts
	}

	m1 := kinds(M1)
	if m1["rw"] != 0 {
		t.Errorf("M1 produced rewrite features: %v", m1)
	}
	if m1["term"] == 0 {
		t.Errorf("M1 produced no term features: %v", m1)
	}
	m3 := kinds(M3)
	if m3["term"] != 0 {
		t.Errorf("M3 produced term features: %v", m3)
	}
	m6 := kinds(M6)
	if m6["rw"] == 0 && m6["term"] == 0 {
		t.Errorf("M6 produced nothing: %v", m6)
	}
}

func TestDatasetBalanced(t *testing.T) {
	pairs, db := buildTestData(t, 300, 3000)
	pipe := NewPipeline(M1, db)
	ds := pipe.Dataset(pairs)
	if ds.Len() < 100 {
		t.Fatalf("dataset too small: %d", ds.Len())
	}
	pos := 0
	for _, l := range ds.Labels {
		if l {
			pos++
		}
	}
	frac := float64(pos) / float64(ds.Len())
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("positive fraction %.3f, want near balance", frac)
	}
}

func TestDatasetDeterminism(t *testing.T) {
	pairs, db := buildTestData(t, 50, 2000)
	a := NewPipeline(M6, db).Dataset(pairs)
	b := NewPipeline(M6, db).Dataset(pairs)
	if a.Len() != b.Len() {
		t.Fatal("dataset size varies")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels vary between identical runs")
		}
	}
}

func TestTrainAndEvaluateBeatsChance(t *testing.T) {
	pairs, db := buildTestData(t, 400, 5000)
	for _, spec := range []ModelSpec{M1, M6} {
		pipe := NewPipeline(spec, db)
		ds := pipe.Dataset(pairs)
		model, err := Train(ds, nil, Options{Epochs: 40, Rounds: 3})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		preds := model.PredictIdx(ds, nil)
		met := ml.EvaluateBinary(preds, ds.Labels)
		if met.Accuracy < 0.55 {
			t.Errorf("%s training accuracy %.3f, want > 0.55", spec.Name, met.Accuracy)
		}
	}
}

func TestPositionWeightsShape(t *testing.T) {
	pairs, db := buildTestData(t, 400, 5000)
	pipe := NewPipeline(M6, db)
	ds := pipe.Dataset(pairs)
	model, err := Train(ds, nil, Options{Epochs: 40, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	table := model.PositionWeights()
	if len(table) < 2 {
		t.Fatalf("position table covers %d lines, want >= 2", len(table))
	}
	for line, row := range table {
		for pos, w := range row {
			if w < 0 || math.IsNaN(w) {
				t.Errorf("P[line %d][pos %d] = %v", line+1, pos+1, w)
			}
		}
	}
	// Flat models have no position weights.
	flat, err := Train(NewPipeline(M1, db).Dataset(pairs), nil, Options{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if flat.PositionWeights() != nil {
		t.Error("flat model returned position weights")
	}
}

func TestCrossValidateRunsAllFolds(t *testing.T) {
	pairs, db := buildTestData(t, 200, 3000)
	res, err := CrossValidate(M3, pairs, db, 5, 7, Options{Epochs: 30, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldMetrics) != 5 {
		t.Fatalf("got %d folds", len(res.FoldMetrics))
	}
	if res.Mean.Accuracy < 0.5 {
		t.Errorf("M3 CV accuracy %.3f below chance", res.Mean.Accuracy)
	}
	if res.Instances == 0 || res.RelFeatures == 0 {
		t.Errorf("result missing sizes: %+v", res)
	}
}

func TestCrossValidateNoPairs(t *testing.T) {
	db := featstats.New(1)
	if _, err := CrossValidate(M1, nil, db, 5, 1, Options{}); err == nil {
		t.Error("empty pair set accepted")
	}
}

func BenchmarkExtractDB(b *testing.B) {
	corpus := adcorpus.Generate(adcorpus.Config{Seed: 42, Groups: 100}, adcorpus.DefaultLexicon())
	ags := serp.New(serp.Config{Seed: 43, Impressions: 1000}).Run(corpus)
	ex := NewExtractor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.BuildDB(ags)
	}
}

func BenchmarkDatasetM6(b *testing.B) {
	pairs, db := buildTestData(b, 100, 1000)
	pipe := NewPipeline(M6, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Dataset(pairs)
	}
}
