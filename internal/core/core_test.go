package core_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/core/coreref"
	"repro/internal/textproc"
)

func TestGeometricAttention(t *testing.T) {
	g := core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8}
	if got := g.Examine(1, 1); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Examine(1,1) = %v, want 0.9", got)
	}
	if got := g.Examine(1, 2); math.Abs(got-0.72) > 1e-12 {
		t.Errorf("Examine(1,2) = %v, want 0.72", got)
	}
	if got := g.Examine(2, 1); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Examine(2,1) = %v, want 0.6", got)
	}
	if got := g.Examine(4, 1); got != 0 {
		t.Errorf("Examine beyond line weights = %v, want 0", got)
	}
	if got := g.Examine(0, 1); got != 0 {
		t.Errorf("Examine(0,1) = %v, want 0 for invalid line", got)
	}
}

func TestGeometricAttentionDecays(t *testing.T) {
	g := core.GeometricAttention{LineWeights: []float64{0.95, 0.7, 0.45}, Decay: 0.85}
	// Within-line decay.
	for line := 1; line <= 3; line++ {
		for pos := 2; pos <= 8; pos++ {
			if g.Examine(line, pos) >= g.Examine(line, pos-1) {
				t.Errorf("attention not decaying at line %d pos %d", line, pos)
			}
		}
	}
	// Across-line decay at the same position.
	for line := 2; line <= 3; line++ {
		if g.Examine(line, 1) >= g.Examine(line-1, 1) {
			t.Errorf("line %d attention not below line %d", line, line-1)
		}
	}
}

func TestGeometricAttentionInUnitInterval(t *testing.T) {
	f := func(w, d float64, line, pos uint8) bool {
		g := core.GeometricAttention{LineWeights: []float64{math.Abs(w)}, Decay: math.Abs(d)}
		p := g.Examine(int(line%5), int(pos%12))
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableAttention(t *testing.T) {
	ta := core.TableAttention{W: [][]float64{{0.9, 0.5}, {0.4}}, Default: 0.1}
	if got := ta.Examine(1, 2); got != 0.5 {
		t.Errorf("Examine(1,2) = %v", got)
	}
	if got := ta.Examine(2, 1); got != 0.4 {
		t.Errorf("Examine(2,1) = %v", got)
	}
	if got := ta.Examine(3, 1); got != 0.1 {
		t.Errorf("missing cell = %v, want default", got)
	}
	clamped := core.TableAttention{W: [][]float64{{1.7, -0.2}}}
	if got := clamped.Examine(1, 1); got != 1 {
		t.Errorf("overweight cell = %v, want clamp to 1", got)
	}
	if got := clamped.Examine(1, 2); got != 0 {
		t.Errorf("negative cell = %v, want clamp to 0", got)
	}
}

func terms(lines ...string) []textproc.Term {
	return textproc.ExtractTerms(lines, 1)
}

func TestSnippetLogProbEq3(t *testing.T) {
	m := core.NewModel(core.FullAttention{})
	m.Relevance["cheap"] = 0.8
	m.Relevance["flights"] = 0.5

	ts := terms("cheap flights")
	// All examined: log(0.8) + log(0.5).
	want := math.Log(0.8) + math.Log(0.5)
	if got := coreref.SnippetLogProb(m, ts, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("SnippetLogProb = %v, want %v", got, want)
	}
	// Only the first examined.
	if got := coreref.SnippetLogProb(m, ts, []bool{true, false}); math.Abs(got-math.Log(0.8)) > 1e-12 {
		t.Errorf("partial examination = %v, want %v", got, math.Log(0.8))
	}
	// Nothing examined: empty product = probability 1.
	if got := coreref.SnippetLogProb(m, ts, []bool{false, false}); got != 0 {
		t.Errorf("no examination = %v, want 0", got)
	}
}

func TestSnippetLogProbNonPositive(t *testing.T) {
	// Since every r <= 1, any examination pattern gives log prob <= 0.
	f := func(rel1, rel2 float64, v1, v2 bool) bool {
		m := core.NewModel(core.FullAttention{})
		m.Relevance["a"] = math.Abs(rel1)
		m.Relevance["b"] = math.Abs(rel2)
		lp := coreref.SnippetLogProb(m, terms("a b"), []bool{v1, v2})
		return lp <= 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpectedScoreAttentionWeighting(t *testing.T) {
	// A bad term late in the line hurts less under decaying attention
	// than at the front.
	att := core.GeometricAttention{LineWeights: []float64{1}, Decay: 0.5}
	m := core.NewModel(att)
	m.Relevance["great"] = 0.9
	m.Relevance["fees"] = 0.1

	early := coreref.ExpectedScore(m, terms("fees great great"))
	late := coreref.ExpectedScore(m, terms("great great fees"))
	if late <= early {
		t.Errorf("bad term at front should score lower: early=%v late=%v", early, late)
	}
}

func TestScorePairAntisymmetry(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6}, Decay: 0.8})
	m.Relevance["cheap"] = 0.9
	m.Relevance["pricey"] = 0.2
	r := terms("cheap flights")
	s := terms("pricey flights")
	if got := coreref.ScorePair(m, r, s) + coreref.ScorePair(m, s, r); math.Abs(got) > 1e-12 {
		t.Errorf("ScorePair not antisymmetric: residue %v", got)
	}
	if coreref.ScorePair(m, r, s) <= 0 {
		t.Error("snippet with the more relevant term should win")
	}
}

func TestScoreRewritesEqualsScorePair(t *testing.T) {
	// Eq. 6 is an exact refactoring of Eq. 5: for any complete matching
	// the two scores must agree.
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.95, 0.7}, Decay: 0.85})
	m.Relevance = map[string]float64{
		"find": 0.5, "cheap": 0.9, "flights": 0.6,
		"get": 0.45, "discounts": 0.8, "flying": 0.55,
	}
	r := terms("find cheap flights")
	s := terms("get discounts flying")

	// Match find->get, cheap->discounts; leftovers flights / flying.
	pairs := []coreref.RewritePair{
		{From: r[0], To: s[0]},
		{From: r[1], To: s[1]},
	}
	got := coreref.ScoreRewrites(m, pairs, r[2:], s[2:])
	want := coreref.ScorePair(m, r, s)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Eq.6 = %v, Eq.5 = %v; refactoring must be exact", got, want)
	}

	// A different (worse) matching still reproduces Eq. 5.
	pairs2 := []coreref.RewritePair{
		{From: r[0], To: s[1]},
		{From: r[1], To: s[0]},
	}
	got2 := coreref.ScoreRewrites(m, pairs2, r[2:], s[2:])
	if math.Abs(got2-want) > 1e-12 {
		t.Errorf("Eq.6 with alternative matching = %v, want %v", got2, want)
	}
}

func TestScoreRewritesRefactorProperty(t *testing.T) {
	// Property form: random relevances, random split point between
	// matched and leftover terms.
	f := func(rels []float64, split uint8) bool {
		m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9}, Decay: 0.8})
		r := terms("a b c d")
		s := terms("w x y z")
		names := []string{"a", "b", "c", "d", "w", "x", "y", "z"}
		for i, n := range names {
			rel := 0.5
			if i < len(rels) {
				rel = math.Mod(math.Abs(rels[i]), 1)
				if rel == 0 {
					rel = 0.5
				}
			}
			m.Relevance[n] = rel
		}
		k := int(split % 5) // how many terms are matched pairs
		var pairs []coreref.RewritePair
		for i := 0; i < k; i++ {
			pairs = append(pairs, coreref.RewritePair{From: r[i], To: s[i]})
		}
		got := coreref.ScoreRewrites(m, pairs, r[k:], s[k:])
		want := coreref.ScorePair(m, r, s)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecoupledScoreSign(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9}, Decay: 0.8})
	m.Relevance["cheap"] = 0.9
	m.Relevance["pricey"] = 0.2
	r := terms("cheap")
	s := terms("pricey")
	p := []coreref.RewritePair{{From: r[0], To: s[0]}}
	if coreref.DecoupledScore(m, p) <= 0 {
		t.Error("rewriting a good term into a bad one should score positive for R")
	}
	q := []coreref.RewritePair{{From: s[0], To: r[0]}}
	if coreref.DecoupledScore(m, q) >= 0 {
		t.Error("reverse rewrite should score negative")
	}
}

func TestTermRelevanceDefaultsAndClamps(t *testing.T) {
	m := core.NewModel(nil)
	if got := coreref.TermRelevance(m, "unseen"); got != 0.5 {
		t.Errorf("default relevance = %v, want 0.5", got)
	}
	m.Relevance["zero"] = 0
	if got := coreref.TermRelevance(m, "zero"); got != 1e-9 {
		t.Errorf("zero relevance clamp = %v, want 1e-9", got)
	}
	m.Relevance["big"] = 7
	if got := coreref.TermRelevance(m, "big"); got != 1 {
		t.Errorf("overlarge relevance clamp = %v, want 1", got)
	}
}

func TestNilAttentionIsFull(t *testing.T) {
	m := core.NewModel(nil)
	tm := textproc.Term{Text: "x", Line: 3, Pos: 9}
	if got := coreref.Examine(m, tm); got != 1 {
		t.Errorf("nil attention Examine = %v, want 1", got)
	}
}

func TestSampleExaminationStatistics(t *testing.T) {
	att := core.GeometricAttention{LineWeights: []float64{0.8}, Decay: 1}
	m := core.NewModel(att)
	rng := rand.New(rand.NewSource(11))
	ts := terms("a b c")
	const n = 20000
	counts := make([]int, len(ts))
	for i := 0; i < n; i++ {
		for j, v := range coreref.SampleExamination(m, rng, ts) {
			if v {
				counts[j]++
			}
		}
	}
	for j := range ts {
		got := float64(counts[j]) / n
		if math.Abs(got-0.8) > 0.02 {
			t.Errorf("term %d examined %.3f of draws, want ~0.8", j, got)
		}
	}
}

func BenchmarkExpectedScore(b *testing.B) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.95, 0.7, 0.45}, Decay: 0.85})
	m.Relevance["cheap"] = 0.9
	ts := textproc.ExtractTerms([]string{
		"XYZ Airlines Official Site",
		"Find cheap flights to New York today",
		"No reservation costs. Great rates!",
	}, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coreref.ExpectedScore(m, ts)
	}
}
