package core_test

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/core/coreref"
	"repro/internal/textproc"
)

// randomCandidates builds the /v1/optimize workload shape: one base
// snippet plus edits of it (line replacements, drops, the base itself,
// exact duplicates and the occasional empty candidate).
func randomCandidates(rng *rand.Rand, n int) [][]string {
	base := randomLines(rng, 3, 8)
	cands := make([][]string, n)
	for i := range cands {
		switch rng.Intn(8) {
		case 0:
			cands[i] = base // unedited
		case 1:
			cands[i] = nil // empty candidate
		case 2:
			if i > 0 && cands[i-1] != nil {
				cands[i] = cands[i-1] // exact duplicate
				continue
			}
			cands[i] = base
		default:
			edit := make([]string, len(base))
			copy(edit, base)
			edit[rng.Intn(len(edit))] = "w" + strconv.Itoa(rng.Intn(200)) + " w" + strconv.Itoa(rng.Intn(200))
			cands[i] = edit
		}
	}
	return cands
}

// TestScoreCandidatesParity is the candidate-set property test: across
// randomised models, every shipped attention family and edit-shaped
// candidate sets, the amortised compiled path agrees with the map
// fallback and with per-candidate compiled ScoreSnippet within 1e-12.
func TestScoreCandidatesParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cs core.CandidateScratch
	var sc textproc.Scratch
	var out, mapOut []core.CandidateScore
	for trial := 0; trial < 60; trial++ {
		for _, att := range parityAttentions(rng) {
			m := randomModel(rng, att)
			cm := m.Compile()
			cands := randomCandidates(rng, 1+rng.Intn(24))
			maxN := 1 + rng.Intn(3)

			out = cm.ScoreCandidates(cands, maxN, &cs, out)
			mapOut = coreref.ScoreCandidates(m, cands, maxN, mapOut)
			if len(out) != len(cands) || len(mapOut) != len(cands) {
				t.Fatalf("trial %d: %d candidates scored as %d/%d", trial, len(cands), len(out), len(mapOut))
			}
			for k := range cands {
				wantCTR, wantScore := cm.ScoreSnippet(cands[k], maxN, &sc)
				if math.Abs(out[k].CTR-wantCTR) > 1e-12 || math.Abs(out[k].Score-wantScore) > 1e-12 {
					t.Fatalf("trial %d att %T cand %d: set (%v, %v) vs compiled snippet (%v, %v)\nlines: %q",
						trial, att, k, out[k].CTR, out[k].Score, wantCTR, wantScore, cands[k])
				}
				if math.Abs(out[k].CTR-mapOut[k].CTR) > 1e-12 || math.Abs(out[k].Score-mapOut[k].Score) > 1e-12 {
					t.Fatalf("trial %d att %T cand %d: set (%v, %v) vs map (%v, %v)\nlines: %q",
						trial, att, k, out[k].CTR, out[k].Score, mapOut[k].CTR, mapOut[k].Score, cands[k])
				}
			}
		}
	}
}

// TestScoreCandidatesEdgeShapes pins the degenerate inputs: no
// candidates at all, all-empty candidates, and punctuation-only lines.
func TestScoreCandidatesEdgeShapes(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	cm := m.Compile()
	var cs core.CandidateScratch

	if out := cm.ScoreCandidates(nil, 2, &cs, nil); len(out) != 0 {
		t.Fatalf("nil candidates scored as %d results", len(out))
	}
	out := cm.ScoreCandidates([][]string{nil, {}, {"", "?!"}}, 2, &cs, nil)
	for k, got := range out {
		if got.CTR != 0 || got.Score != 0 {
			t.Errorf("empty candidate %d scored (%v, %v), want (0, 0)", k, got.CTR, got.Score)
		}
	}
}

// TestScoreCandidatesDeepLines pushes candidates past the partial
// cache's line bound (and the attention table) so the uncached
// recompute path is compared against ScoreSnippet too.
func TestScoreCandidatesDeepLines(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05}, Decay: 0.95})
	m.Relevance["deep"] = 0.9
	m.Relevance["deep deep"] = 0.4
	cm := m.Compile()
	var cs core.CandidateScratch
	var sc textproc.Scratch

	deep := make([]string, 12) // beyond candCacheLines
	for i := range deep {
		deep[i] = "deep deep value " + strconv.Itoa(i%3)
	}
	cands := [][]string{deep, deep[:10], deep[:3]}
	out := cm.ScoreCandidates(cands, 3, &cs, nil)
	for k := range cands {
		wantCTR, wantScore := cm.ScoreSnippet(cands[k], 3, &sc)
		if math.Abs(out[k].CTR-wantCTR) > 1e-12 || math.Abs(out[k].Score-wantScore) > 1e-12 {
			t.Errorf("deep cand %d: (%v, %v), want (%v, %v)", k, out[k].CTR, out[k].Score, wantCTR, wantScore)
		}
	}
}

// TestScoreCandidatesDistinctAndDuplicate pins that distinct lines
// score per line (never aliased through the dedup table — the forced
// hash-collision aliasing check lives in textproc's candidate tests)
// and that duplicate candidates reuse their originals' partials
// bit for bit.
func TestScoreCandidatesDistinctAndDuplicate(t *testing.T) {
	m := core.NewModel(core.FullAttention{})
	m.Relevance["alpha"] = 0.9
	m.Relevance["beta"] = 0.1
	cm := m.Compile()
	var cs core.CandidateScratch
	var sc textproc.Scratch

	cands := [][]string{{"alpha"}, {"beta"}, {"alpha"}, {"beta"}}
	out := cm.ScoreCandidates(cands, 1, &cs, nil)
	for k, lines := range cands {
		wantCTR, wantScore := cm.ScoreSnippet(lines, 1, &sc)
		if out[k].CTR != wantCTR || out[k].Score != wantScore {
			t.Fatalf("cand %d %q: (%v, %v), want (%v, %v)", k, lines, out[k].CTR, out[k].Score, wantCTR, wantScore)
		}
	}
	if out[0].CTR == out[1].CTR {
		t.Fatal("distinct lines aliased to one score")
	}
	if out[0] != out[2] || out[1] != out[3] {
		t.Fatal("duplicate candidates disagree with their originals")
	}
}

// TestScoreCandidatesNoalloc backs the //mb:noalloc annotations on
// ScoreCandidates and scoreCandLine: a warm candidate-set pass over a
// fixed workload must not allocate.
func TestScoreCandidatesNoalloc(t *testing.T) {
	m := core.NewModel(core.GeometricAttention{LineWeights: []float64{0.9, 0.6, 0.3}, Decay: 0.8})
	m.Relevance["find cheap"] = 0.85
	m.Relevance["flights"] = 0.6
	cm := m.Compile()
	var cs core.CandidateScratch

	base := []string{"XYZ Airlines Official Site", "Find cheap flights to Rome", "No reservation costs!"}
	cands := make([][]string, 32)
	for i := range cands {
		edit := make([]string, len(base))
		copy(edit, base)
		edit[i%3] = "Great rates variant " + strconv.Itoa(i)
		cands[i] = edit
	}
	var out []core.CandidateScore
	out = cm.ScoreCandidates(cands, 3, &cs, out) // warm arenas and caches
	allocs := testing.AllocsPerRun(100, func() {
		out = cm.ScoreCandidates(cands, 3, &cs, out)
	})
	if allocs != 0 {
		t.Fatalf("warm ScoreCandidates allocates %v/op, want 0", allocs)
	}
}
