package core_test

import (
	"bytes"
	"maps"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coreref"
	"repro/internal/textproc"
)

// legacyScore replicates the pre-fusion serving computation (one CTR
// walk, then ExpectedScore re-walking the terms) as the reference the
// fused paths must match.
func legacyScore(m *core.Model, lines []string, maxN int) (ctr, score float64) {
	terms := textproc.ExtractTerms(lines, maxN)
	ctr = 1.0
	for _, t := range terms {
		a := m.Examine(t)
		ctr *= a*m.TermRelevance(t.Text) + 1 - a
	}
	if len(terms) == 0 || math.IsNaN(ctr) {
		ctr = 0
	}
	return ctr, m.ExpectedScore(terms)
}

// randomWords is the shared lexicon for the parity corpus; scoring
// text reuses a subset so snippets mix known and unknown terms.
func randomWords(rng *rand.Rand, n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = "w" + strconv.Itoa(rng.Intn(200))
	}
	return words
}

func randomModel(rng *rand.Rand, att core.Attention) *core.Model {
	m := core.NewModel(att)
	for _, w := range randomWords(rng, 120) {
		// Deliberately out-of-range values exercise the clamps: the
		// compiled table must bake in exactly TermRelevance's clamping.
		m.Relevance[w] = rng.Float64()*1.4 - 0.1
	}
	// Bigrams and trigrams in the table make n-gram window lookups hit.
	for i := 0; i < 40; i++ {
		m.Relevance["w"+strconv.Itoa(rng.Intn(200))+" w"+strconv.Itoa(rng.Intn(200))] = rng.Float64()
	}
	for i := 0; i < 20; i++ {
		m.Relevance["w"+strconv.Itoa(rng.Intn(200))+" w"+strconv.Itoa(rng.Intn(200))+" w"+strconv.Itoa(rng.Intn(200))] = rng.Float64()
	}
	switch rng.Intn(4) {
	case 0:
		m.DefaultRelevance = 0 // exercises the 0 -> 0.5 substitution
	case 1:
		m.DefaultRelevance = rng.Float64()
	case 2:
		m.DefaultRelevance = 1.7 // clamped to 1
	case 3:
		m.DefaultRelevance = -0.2 // clamped to 1e-9
	}
	return m
}

func randomLines(rng *rand.Rand, maxLines, maxTokens int) []string {
	lines := make([]string, 1+rng.Intn(maxLines))
	for i := range lines {
		toks := randomWords(rng, 1+rng.Intn(maxTokens))
		if rng.Intn(4) == 0 {
			toks = append(toks, "unseen"+strconv.Itoa(rng.Intn(50)))
		}
		line := ""
		for j, tok := range toks {
			if j > 0 {
				line += " "
			}
			line += tok
		}
		lines[i] = line
	}
	return lines
}

// parityAttentions returns the attention layers of the property suite:
// the three shipped families plus nil (degenerate FullAttention).
func parityAttentions(rng *rand.Rand) []core.Attention {
	w := make([][]float64, 3)
	for i := range w {
		w[i] = make([]float64, 6)
		for j := range w[i] {
			w[i][j] = rng.Float64()*1.2 - 0.1 // includes out-of-range cells
		}
	}
	return []core.Attention{
		nil,
		core.FullAttention{},
		core.GeometricAttention{LineWeights: []float64{0.95, 0.7, 0.45}, Decay: 0.85},
		core.TableAttention{W: w, Default: rng.Float64()},
	}
}

// TestCompiledParity is the compiled-vs-map property test: across
// randomised models, snippets and every shipped attention family, the
// compiled scorer, the fused map scorer and the legacy two-pass
// computation agree on CTR and Score within 1e-12.
func TestCompiledParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc textproc.Scratch
	for trial := 0; trial < 200; trial++ {
		for _, att := range parityAttentions(rng) {
			m := randomModel(rng, att)
			cm := m.Compile()
			lines := randomLines(rng, 4, 8)
			maxN := 1 + rng.Intn(3)

			wantCTR, wantScore := legacyScore(m, lines, maxN)
			fusedCTR, fusedScore := coreref.ScoreSnippet(m, lines, maxN)
			gotCTR, gotScore := cm.ScoreSnippet(lines, maxN, &sc)

			if math.Abs(fusedCTR-wantCTR) > 1e-12 || math.Abs(fusedScore-wantScore) > 1e-12 {
				t.Fatalf("trial %d att %T: fused (%v, %v) vs legacy (%v, %v)\nlines: %q",
					trial, att, fusedCTR, fusedScore, wantCTR, wantScore, lines)
			}
			if math.Abs(gotCTR-wantCTR) > 1e-12 || math.Abs(gotScore-wantScore) > 1e-12 {
				t.Fatalf("trial %d att %T: compiled (%v, %v) vs legacy (%v, %v)\nlines: %q",
					trial, att, gotCTR, gotScore, wantCTR, wantScore, lines)
			}
		}
	}
}

// TestCompiledParityRealText runs the parity check over punctuated,
// mixed-case ad text, so the zero-copy normaliser inside the compiled
// path is compared against the string path end to end.
func TestCompiledParityRealText(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	m.Relevance["20%"] = 0.9
	m.Relevance["$99"] = 0.8
	m.Relevance["dont miss"] = 0.7
	cm := m.Compile()
	var sc textproc.Scratch
	snippets := [][]string{
		{"XYZ Airlines Official Site", "Find cheap flights to New York", "No reservation costs. Great rates!"},
		{"20% Off — From $99", "Don't Miss Out!"},
		{"", "   ", "?!"},
		{"one-line snippet with $99 and 20% off"},
	}
	for _, lines := range snippets {
		for maxN := 1; maxN <= 3; maxN++ {
			wantCTR, wantScore := coreref.ScoreSnippet(m, lines, maxN)
			gotCTR, gotScore := cm.ScoreSnippet(lines, maxN, &sc)
			if math.Abs(gotCTR-wantCTR) > 1e-12 || math.Abs(gotScore-wantScore) > 1e-12 {
				t.Errorf("lines %q maxN %d: compiled (%v, %v), want (%v, %v)",
					lines, maxN, gotCTR, gotScore, wantCTR, wantScore)
			}
		}
	}
}

// TestCompiledDefaultRelevance pins the unknown-term fallback: terms
// absent from the vocab score with the clamped DefaultRelevance,
// including the 0 -> 0.5 substitution.
func TestCompiledDefaultRelevance(t *testing.T) {
	var sc textproc.Scratch
	lines := []string{"totally unknown words here"}
	for _, def := range []float64{0, 0.3, 1.5, -2} {
		m := core.NewModel(core.FullAttention{})
		m.Relevance["known"] = 0.9
		m.DefaultRelevance = def
		cm := m.Compile()
		wantCTR, wantScore := coreref.ScoreSnippet(m, lines, 2)
		gotCTR, gotScore := cm.ScoreSnippet(lines, 2, &sc)
		if math.Abs(gotCTR-wantCTR) > 1e-12 || math.Abs(gotScore-wantScore) > 1e-12 {
			t.Errorf("default %v: compiled (%v, %v), want (%v, %v)", def, gotCTR, gotScore, wantCTR, wantScore)
		}
		// Sanity: the per-term factor really is the clamped default.
		r := def
		if r == 0 {
			r = 0.5
		}
		r = core.ClampRel(r)
		if want := math.Pow(r, 7); math.Abs(gotCTR-want) > 1e-9 { // 4 unigram + 3 bigram windows
			t.Errorf("default %v: CTR %v, want %v", def, gotCTR, want)
		}
	}
}

// TestCompiledEmptySnippet mirrors the serving guard: no terms means
// CTR 0, not the multiplicative identity.
func TestCompiledEmptySnippet(t *testing.T) {
	m := core.NewModel(nil)
	cm := m.Compile()
	var sc textproc.Scratch
	if ctr, score := cm.ScoreSnippet([]string{"", "?!"}, 2, &sc); ctr != 0 || score != 0 {
		t.Errorf("empty snippet scored (%v, %v), want (0, 0)", ctr, score)
	}
	if ctr, _ := coreref.ScoreSnippet(m, nil, 2); ctr != 0 {
		t.Errorf("fused map path: empty snippet CTR %v, want 0", ctr)
	}
}

// TestCompiledDeepSnippet pushes coordinates beyond the dense
// attention table so the interface fallback path is exercised.
func TestCompiledDeepSnippet(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05}, Decay: 0.95})
	m.Relevance["deep"] = 0.9
	cm := m.Compile()
	var sc textproc.Scratch

	long := ""
	for i := 0; i < 40; i++ { // beyond attTableCols
		if i > 0 {
			long += " "
		}
		long += "deep"
	}
	lines := make([]string, 10, 10) // beyond attTableLines
	for i := range lines {
		lines[i] = long
	}
	wantCTR, wantScore := coreref.ScoreSnippet(m, lines, 3)
	gotCTR, gotScore := cm.ScoreSnippet(lines, 3, &sc)
	if math.Abs(gotCTR-wantCTR) > 1e-12 || math.Abs(gotScore-wantScore) > 1e-12 {
		t.Errorf("deep snippet: compiled (%v, %v), want (%v, %v)", gotCTR, gotScore, wantCTR, wantScore)
	}
}

// TestCompiledZeroAlloc pins the whole compiled scoring call —
// normalise, tokenise, n-gram lookups, CTR and score — to zero
// steady-state allocations.
func TestCompiledZeroAlloc(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	cm := m.Compile()
	var sc textproc.Scratch
	lines := []string{"XYZ Airlines Official Site", "Find cheap flights to New York", "No reservation costs!"}
	cm.ScoreSnippet(lines, 3, &sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		cm.ScoreSnippet(lines, 3, &sc)
	})
	if allocs != 0 {
		t.Errorf("compiled ScoreSnippet allocates %v per run, want 0", allocs)
	}
}

// TestCompiledAfterSnapshotRoundTrip loads a saved model through
// CompiledFromArtifact and ValidateTables — the verified engine load —
// and checks it against the original: the same vocabulary, and the
// reference answers.
func TestCompiledAfterSnapshotRoundTrip(t *testing.T) {
	m := core.NewModel(core.TableAttention{W: [][]float64{{0.9, 0.7}, {0.5, 0.3}}, Default: 0.2})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	m.DefaultRelevance = 0.4

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cm, err := core.LoadCompiled(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cm.NumParams() != len(m.Relevance) {
		t.Errorf("NumParams = %d, want %d", cm.NumParams(), len(m.Relevance))
	}
	if got, want := core.VocabRel(cm), core.VocabRel(m.Compile()); !maps.Equal(got, want) {
		t.Errorf("vocabulary %v, want %v", got, want)
	}
	if cm.Source() != nil {
		t.Error("a model served from its artifact has no fitting form")
	}
	var sc textproc.Scratch
	lines := []string{"Find cheap flights", "Great rates"}
	wantCTR, wantScore := coreref.ScoreSnippet(m, lines, 2)
	gotCTR, gotScore := cm.ScoreSnippet(lines, 2, &sc)
	if math.Abs(gotCTR-wantCTR) > 1e-12 || math.Abs(gotScore-wantScore) > 1e-12 {
		t.Errorf("round-tripped compile: (%v, %v), want (%v, %v)", gotCTR, gotScore, wantCTR, wantScore)
	}
}
