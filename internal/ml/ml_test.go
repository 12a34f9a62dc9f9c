package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInstanceCanonicalize(t *testing.T) {
	in := Instance{Features: []Feature{{3, 1}, {1, 2}, {3, 0.5}, {2, -1}}}
	in.Canonicalize()
	want := []Feature{{1, 2}, {2, -1}, {3, 1.5}}
	if len(in.Features) != len(want) {
		t.Fatalf("got %v, want %v", in.Features, want)
	}
	for i := range want {
		if in.Features[i] != want[i] {
			t.Errorf("feature %d = %v, want %v", i, in.Features[i], want[i])
		}
	}
}

func TestInstanceDotIgnoresUnknown(t *testing.T) {
	in := Instance{Features: []Feature{{0, 1}, {100, 5}}}
	w := []float64{2}
	if got := in.Dot(w); got != 2 {
		t.Errorf("Dot = %v, want 2 (unknown feature must be ignored)", got)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(1000); got <= 0.999 || got > 1 {
		t.Errorf("Sigmoid(1000) = %v", got)
	}
	if got := Sigmoid(-1000); got >= 0.001 || got < 0 {
		t.Errorf("Sigmoid(-1000) = %v", got)
	}
}

func TestSigmoidProperties(t *testing.T) {
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		p := Sigmoid(z)
		if p < 0 || p > 1 || math.IsNaN(p) {
			return false
		}
		// Symmetry: s(-z) = 1 - s(z).
		return math.Abs(Sigmoid(-z)-(1-p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftThreshold(t *testing.T) {
	tests := []struct{ v, t, want float64 }{
		{5, 1, 4},
		{-5, 1, -4},
		{0.5, 1, 0},
		{-0.5, 1, 0},
		{1, 1, 0},
	}
	for _, tt := range tests {
		if got := SoftThreshold(tt.v, tt.t); got != tt.want {
			t.Errorf("SoftThreshold(%v,%v) = %v, want %v", tt.v, tt.t, got, tt.want)
		}
	}
}

func TestSoftThresholdShrinks(t *testing.T) {
	f := func(v, thr float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(thr) || math.IsInf(thr, 0) {
			return true
		}
		thr = math.Abs(thr)
		return math.Abs(SoftThreshold(v, thr)) <= math.Abs(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// makeLinearlySeparable builds a noiseless 2-feature dataset where the
// label is sign(x0 - x1).
func makeLinearlySeparable(rng *rand.Rand, n int) []Instance {
	data := make([]Instance, n)
	for i := range data {
		x0 := rng.Float64()*2 - 1
		x1 := rng.Float64()*2 - 1
		data[i] = Instance{
			Features: []Feature{{0, x0}, {1, x1}},
			Label:    x0 > x1,
		}
	}
	return data
}

func predictAll(m *LogisticRegression, data []Instance) []float64 {
	out := make([]float64, len(data))
	for i := range data {
		out[i] = m.Predict(&data[i])
	}
	return out
}

func nonZero(w []float64) int {
	n := 0
	for _, v := range w {
		if v != 0 {
			n++
		}
	}
	return n
}

func TestLogisticRegressionSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := makeLinearlySeparable(rng, 500)
	m := &LogisticRegression{L1: 1e-4, Epochs: 300}
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	preds := predictAll(m, data)
	labels := make([]bool, len(data))
	for i := range data {
		labels[i] = data[i].Label
	}
	met := EvaluateBinary(preds, labels)
	if met.Accuracy < 0.97 {
		t.Errorf("accuracy %v on separable data, want >= 0.97", met.Accuracy)
	}
	if m.Weights[0] <= 0 || m.Weights[1] >= 0 {
		t.Errorf("weight signs wrong: %v", m.Weights)
	}
}

func TestLogisticRegressionL1Sparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Feature 0 is predictive; features 1..20 are pure noise.
	data := make([]Instance, 800)
	for i := range data {
		x0 := rng.Float64()*2 - 1
		fs := []Feature{{0, x0}}
		for j := 1; j <= 20; j++ {
			fs = append(fs, Feature{j, rng.Float64()*2 - 1})
		}
		data[i] = Instance{Features: fs, Label: x0 > 0}
	}
	strong := &LogisticRegression{L1: 0.05, Epochs: 200}
	if err := strong.Fit(data); err != nil {
		t.Fatal(err)
	}
	weak := &LogisticRegression{Epochs: 200}
	if err := weak.Fit(data); err != nil {
		t.Fatal(err)
	}
	if nonZero(strong.Weights) >= nonZero(weak.Weights) {
		t.Errorf("L1 did not sparsify: strong=%d weak=%d nonzeros",
			nonZero(strong.Weights), nonZero(weak.Weights))
	}
	if strong.Weights[0] == 0 {
		t.Error("L1 zeroed the genuinely predictive feature")
	}
}

func TestLogisticRegressionInitialWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := makeLinearlySeparable(rng, 200)
	// With zero epochs of learning the initial weights must carry the
	// predictions on their own.
	m := &LogisticRegression{Epochs: 1, LearningRate: 1e-12, InitialWeights: []float64{5, -5}}
	if err := m.Fit(data); err != nil {
		t.Fatal(err)
	}
	preds := predictAll(m, data)
	labels := make([]bool, len(data))
	for i := range data {
		labels[i] = data[i].Label
	}
	if met := EvaluateBinary(preds, labels); met.Accuracy < 0.95 {
		t.Errorf("stats-DB style initialisation ignored: accuracy %v", met.Accuracy)
	}
}

func TestLogisticRegressionEmpty(t *testing.T) {
	m := &LogisticRegression{}
	if err := m.Fit(nil); err == nil {
		t.Error("Fit(nil) should fail")
	}
}

func TestLogisticRegressionRejectsBadData(t *testing.T) {
	m := &LogisticRegression{}
	bad := []Instance{{Features: []Feature{{-1, 1}}}}
	if err := m.Fit(bad); err == nil {
		t.Error("negative feature id accepted")
	}
	nan := []Instance{{Features: []Feature{{0, math.NaN()}}}}
	if err := m.Fit(nan); err == nil {
		t.Error("NaN value accepted")
	}
}

func TestEvaluateBinary(t *testing.T) {
	preds := []float64{0.9, 0.8, 0.3, 0.1}
	labels := []bool{true, false, true, false}
	m := EvaluateBinary(preds, labels)
	// Threshold 0.5: TP=1 (0.9), FP=1 (0.8), FN=1 (0.3), TN=1 (0.1).
	if m.TP != 1 || m.FP != 1 || m.FN != 1 || m.TN != 1 {
		t.Errorf("confusion = TP%d FP%d TN%d FN%d", m.TP, m.FP, m.TN, m.FN)
	}
	if m.Accuracy != 0.5 || m.Precision != 0.5 || m.Recall != 0.5 || m.F1 != 0.5 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestAUCPerfectAndReversed(t *testing.T) {
	preds := []float64{0.1, 0.4, 0.35, 0.8}
	labels := []bool{false, false, true, true}
	// One inversion among the 4 pos-neg pairs: (0.35 vs 0.4).
	if got := AUC(preds, labels); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("AUC = %v, want 0.75", got)
	}
	perfect := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []bool{false, false, true, true})
	if perfect != 1 {
		t.Errorf("perfect AUC = %v", perfect)
	}
	reversed := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []bool{false, false, true, true})
	if reversed != 0 {
		t.Errorf("reversed AUC = %v", reversed)
	}
	onlyPos := AUC([]float64{0.5}, []bool{true})
	if onlyPos != 0.5 {
		t.Errorf("degenerate AUC = %v, want 0.5", onlyPos)
	}
}

func TestAUCTies(t *testing.T) {
	// All predictions equal: AUC must be exactly 0.5 via midranks.
	preds := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	if got := AUC(preds, labels); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v, want 0.5", got)
	}
}

func TestKFold(t *testing.T) {
	folds, err := KFold(103, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := make(map[int]int)
	for _, f := range folds {
		for _, i := range f.Test {
			seen[i]++
		}
		if len(f.Train)+len(f.Test) != 103 {
			t.Errorf("fold covers %d examples, want 103", len(f.Train)+len(f.Test))
		}
		// Train and test are disjoint.
		inTest := make(map[int]bool, len(f.Test))
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Fatal("train/test overlap")
			}
		}
	}
	if len(seen) != 103 {
		t.Errorf("test folds cover %d distinct examples, want 103", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("example %d appears in %d test folds", i, c)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(5, 1, 0); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KFold(3, 10, 0); err == nil {
		t.Error("n<k accepted")
	}
}

func TestMeanMetricsEmpty(t *testing.T) {
	if got := MeanMetrics(nil); got.Accuracy != 0 {
		t.Errorf("MeanMetrics(nil) = %+v", got)
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	data := makeLinearlySeparable(rng, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &LogisticRegression{L1: 1e-4, Epochs: 50}
		if err := m.Fit(data); err != nil {
			b.Fatal(err)
		}
	}
}
