package clickmodel

import (
	"math"
	"math/rand"
	"testing"
)

// simulateSUM generates sessions where doc utility controls session
// termination after clicks.
func simulateSUM(rng *rand.Rand, n int) []Session {
	truthU := func(d int) float64 { return 0.15 + 0.1*float64(d) } // docs 0..7
	out := make([]Session, 0, n)
	for k := 0; k < n; k++ {
		perm := rng.Perm(simDocs)
		docs := make([]string, 5)
		clicks := make([]bool, 5)
		satisfied := false
		for i := 0; i < 5; i++ {
			d := perm[i]
			docs[i] = docName(d)
			if satisfied {
				continue
			}
			if rng.Float64() < 0.35 { // attractive enough to click
				clicks[i] = true
				if rng.Float64() < truthU(d) {
					satisfied = true
				}
			}
		}
		out = append(out, Session{Query: "q", Docs: docs, Clicks: clicks})
	}
	return out
}

func TestSUMUtilityOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sessions := simulateSUM(rng, 30000)
	m := NewSUM()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	// Utilities must be ordered like the planted values. Allow local
	// swaps between neighbours but demand global rank correlation.
	violations := 0
	comparisons := 0
	for a := 0; a < simDocs; a++ {
		for b := a + 2; b < simDocs; b++ { // skip direct neighbours
			comparisons++
			if row := m.pairs.row("q"); m.u(row, docName(a)) >= m.u(row, docName(b)) {
				violations++
			}
		}
	}
	if violations > comparisons/4 {
		t.Errorf("utility ordering violated %d/%d times", violations, comparisons)
	}
}

func TestSUMSessionUtility(t *testing.T) {
	m := NewSUM()
	m.pairs, m.utility = pairTableOf([]qd{{"q", "a"}, {"q", "b"}}), []float64{0.5, 0.5}
	m.baseCTR = []float64{0.1, 0.1}
	s := Session{Query: "q", Docs: []string{"a", "b"}, Clicks: []bool{true, true}}
	// 1 - (1-0.5)(1-0.5) = 0.75.
	if got := m.SessionUtility(s); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("SessionUtility = %v, want 0.75", got)
	}
	empty := Session{Query: "q", Docs: []string{"a"}, Clicks: []bool{false}}
	if got := m.SessionUtility(empty); got != 0 {
		t.Errorf("clickless session utility = %v, want 0", got)
	}
}

func TestSUMLogLikelihoodFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sessions := simulateSUM(rng, 5000)
	m := NewSUM()
	if err := fitSessions(m, sessions); err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions[:200] {
		ll := m.SessionLogLikelihood(s)
		if math.IsNaN(ll) || ll > 0 {
			t.Fatalf("bad LL %v", ll)
		}
	}
	ev := Evaluate(m, sessions[:1000])
	if ev.Perplexity < 1 {
		t.Errorf("perplexity %v", ev.Perplexity)
	}
}

func TestSUMRejectsBadInput(t *testing.T) {
	m := NewSUM()
	if err := m.FitLog(nil); err == nil {
		t.Error("nil compiled log accepted")
	}
	if err := fitSessions(m, nil); err == nil {
		t.Error("empty log accepted")
	}
}
