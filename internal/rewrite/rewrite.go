// Package rewrite implements the rewrite extraction and matching
// machinery of Section IV: diffing a pair of creatives into the terms
// unique to each side, proposing candidate phrase rewrites, and greedily
// matching them using scores from the rewrite statistics database.
//
// In the paper's example, "find cheap" at position 1 of line 2 in
// snippet R is rewritten to "get discounts" at position 5 of line 2 in
// snippet S, yielding the rewrite tuple
// (find cheap:1:2, get discounts:5:2). Deciding which phrase maps to
// which is combinatorial; the paper (and this package) resolves it
// greedily, preferring pairs with strong support in the corpus-level
// rewrite database.
package rewrite

import (
	"math"
	"sort"

	"repro/internal/featstats"
	"repro/internal/snippet"
	"repro/internal/textproc"
)

// Pair is one matched rewrite: the term From in creative R was rewritten
// to the term To in creative S.
type Pair struct {
	From, To textproc.Term
}

// Match is the result of matching a creative pair: the accepted rewrite
// pairs plus the differing terms left unmatched on each side, which
// become individual term-level features.
type Match struct {
	Pairs []Pair
	OnlyR []textproc.Term
	OnlyS []textproc.Term
}

// Scorer scores a candidate rewrite from→to; higher means the rewrite is
// more plausible. Scores <= 0 mean "no evidence".
type Scorer interface {
	Score(from, to string) float64
}

// DBScorer scores candidates from the rewrite statistics database. The
// score favours rewrites observed often in the corpus (they are the
// probable ones) and, among equally frequent rewrites, those with a
// decisive CTR-lift odds ratio in either direction.
type DBScorer struct {
	DB *featstats.DB
}

// Score implements Scorer.
func (s DBScorer) Score(from, to string) float64 {
	key := featstats.RewriteKey(from, to)
	c := s.DB.Count(key)
	if c == 0 {
		return 0
	}
	return math.Log1p(c) + math.Abs(s.DB.LogOdds(key))
}

// Matcher diffs and matches creative pairs.
type Matcher struct {
	// Scorer ranks candidate rewrites. Nil scores every content rewrite
	// 0, so only MatchTerms' positional tie-breaking orders them: the
	// naive baseline of the matching ablation.
	Scorer Scorer
	// MaxN is the largest n-gram size (default 3).
	MaxN int
	// AllowCrossLine also proposes rewrites between different lines.
	// The paper's rewrites stay within a line; cross-line matching is
	// off by default.
	AllowCrossLine bool
	// MinScore rejects content-rewrite candidates scoring below it, so
	// low-evidence pairings fall through to the leftover term sets
	// instead of becoming spurious matches. Same-text moves always
	// match. Zero accepts everything.
	MinScore float64
}

// NewMatcher returns a Matcher using the rewrite statistics in db.
func NewMatcher(db *featstats.DB) *Matcher {
	return &Matcher{Scorer: DBScorer{DB: db}, MaxN: 3}
}

func (m *Matcher) maxN() int {
	if m.MaxN <= 0 {
		return 3
	}
	return m.MaxN
}

// Diff returns the terms of r whose text does not occur anywhere in s,
// and vice versa. Text matching ignores position: a phrase that merely
// moved is not a difference in content. This is the diff for the
// position-free models (M1/M3/M5).
func (m *Matcher) Diff(r, s snippet.Creative) (onlyR, onlyS []textproc.Term) {
	rTerms := r.Terms(m.maxN())
	sTerms := s.Terms(m.maxN())
	rSet := make(map[string]bool, len(rTerms))
	for _, t := range rTerms {
		rSet[t.Text] = true
	}
	sSet := make(map[string]bool, len(sTerms))
	for _, t := range sTerms {
		sSet[t.Text] = true
	}
	for _, t := range rTerms {
		if !sSet[t.Text] {
			onlyR = append(onlyR, t)
		}
	}
	for _, t := range sTerms {
		if !rSet[t.Text] {
			onlyS = append(onlyS, t)
		}
	}
	return onlyR, onlyS
}

// DiffPositional returns the terms of r whose (text, line, position)
// coordinate does not occur in s, and vice versa. Under this diff a
// phrase that moved — the paper's key insight is that "even where within
// a snippet particular words are located" matters — appears on both
// sides with the same text and different positions, and the matcher
// pairs the two occurrences into a move rewrite. This is the diff for
// the positional models (M2/M4/M6).
func (m *Matcher) DiffPositional(r, s snippet.Creative) (onlyR, onlyS []textproc.Term) {
	rTerms := r.Terms(m.maxN())
	sTerms := s.Terms(m.maxN())
	key := func(t textproc.Term) textproc.Term { return t } // full struct equality
	rSet := make(map[textproc.Term]bool, len(rTerms))
	for _, t := range rTerms {
		rSet[key(t)] = true
	}
	sSet := make(map[textproc.Term]bool, len(sTerms))
	for _, t := range sTerms {
		sSet[key(t)] = true
	}
	for _, t := range rTerms {
		if !sSet[key(t)] {
			onlyR = append(onlyR, t)
		}
	}
	for _, t := range sTerms {
		if !rSet[key(t)] {
			onlyS = append(onlyS, t)
		}
	}
	return onlyR, onlyS
}

// candidate is an internal scored pairing.
type candidate struct {
	ri, si int // indices into onlyR / onlyS
	score  float64
}

// Candidates enumerates the admissible (From, To) pairs between the two
// difference sets: same line unless AllowCrossLine.
func (m *Matcher) Candidates(onlyR, onlyS []textproc.Term) []Pair {
	var out []Pair
	for _, a := range onlyR {
		for _, b := range onlyS {
			if !m.AllowCrossLine && a.Line != b.Line {
				continue
			}
			out = append(out, Pair{From: a, To: b})
		}
	}
	return out
}

// overlaps reports whether two terms on the same line occupy overlapping
// token spans. A term covers [Pos, Pos+N).
func overlaps(a, b textproc.Term) bool {
	if a.Line != b.Line {
		return false
	}
	return a.Pos < b.Pos+b.N && b.Pos < a.Pos+a.N
}

// MatchTerms greedily matches the differing terms of a pair (Diff's
// two sets). The greedy order is by descending scorer score; ties break
// by positional proximity and then deterministically by text, so the
// result does not depend on map iteration order. Every accepted match
// blocks later matches whose spans overlap it on either side, and the
// leftover terms are those not covered by any accepted match.
func (m *Matcher) MatchTerms(onlyR, onlyS []textproc.Term) Match {
	var cands []candidate
	for i, a := range onlyR {
		for j, b := range onlyS {
			if !m.AllowCrossLine && a.Line != b.Line {
				continue
			}
			var score float64
			if a.Text == b.Text {
				// A moved term: the same phrase at a different position.
				// Always pair such occurrences first — the move itself is
				// the feature (captured by the rewrite position pair).
				score = math.Inf(1)
			} else {
				if m.Scorer != nil {
					score = m.Scorer.Score(a.Text, b.Text)
				}
				if score < m.MinScore {
					continue
				}
			}
			cands = append(cands, candidate{ri: i, si: j, score: score})
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		cx, cy := cands[x], cands[y]
		if cx.score != cy.score {
			return cx.score > cy.score
		}
		ax, bx := onlyR[cx.ri], onlyS[cx.si]
		ay, by := onlyR[cy.ri], onlyS[cy.si]
		// Prefer same gram size, then maximal phrases (the paper matches
		// "find cheap" → "get discounts" as whole phrases, not their
		// fragments), then positional proximity.
		dx := abs(ax.N-bx.N)*100 + abs(ax.Pos-bx.Pos)
		dy := abs(ay.N-by.N)*100 + abs(ay.Pos-by.Pos)
		if dx != dy {
			return dx < dy
		}
		if nx, ny := ax.N+bx.N, ay.N+by.N; nx != ny {
			return nx > ny
		}
		if ax.Text != ay.Text {
			return ax.Text < ay.Text
		}
		return bx.Text < by.Text
	})

	usedR := make([]bool, len(onlyR))
	usedS := make([]bool, len(onlyS))
	var accepted []Pair
	var acceptedR, acceptedS []textproc.Term
	for _, c := range cands {
		a, b := onlyR[c.ri], onlyS[c.si]
		if usedR[c.ri] || usedS[c.si] {
			continue
		}
		if overlapsAny(a, acceptedR) || overlapsAny(b, acceptedS) {
			continue
		}
		accepted = append(accepted, Pair{From: a, To: b})
		acceptedR = append(acceptedR, a)
		acceptedS = append(acceptedS, b)
		usedR[c.ri] = true
		usedS[c.si] = true
	}

	var leftR, leftS []textproc.Term
	for i, t := range onlyR {
		if !usedR[i] && !overlapsAny(t, acceptedR) {
			leftR = append(leftR, t)
		}
	}
	for j, t := range onlyS {
		if !usedS[j] && !overlapsAny(t, acceptedS) {
			leftS = append(leftS, t)
		}
	}
	return Match{Pairs: accepted, OnlyR: leftR, OnlyS: leftS}
}

func overlapsAny(t textproc.Term, spans []textproc.Term) bool {
	for _, s := range spans {
		if overlaps(t, s) {
			return true
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
