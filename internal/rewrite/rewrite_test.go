package rewrite

import (
	"testing"

	"repro/internal/featstats"
	"repro/internal/snippet"
	"repro/internal/textproc"
)

// paperPair builds the exact example pair from Section IV-A.
func paperPair() (snippet.Creative, snippet.Creative) {
	r := snippet.Creative{ID: "R", Lines: []string{
		"XYZ Airlines",
		"Find cheap flights to New York.",
		"No reservation costs. Great rates"}}
	s := snippet.Creative{ID: "S", Lines: []string{
		"XYZ Airlines",
		"Flying to New York? Get discounts.",
		"No reservation costs. Great rates!"}}
	return r, s
}

func TestDiffPaperExample(t *testing.T) {
	m := &Matcher{MaxN: 2}
	r, s := paperPair()
	onlyR, onlyS := m.Diff(r, s)

	rTexts := texts(onlyR)
	sTexts := texts(onlyS)
	for _, want := range []string{"find", "cheap", "flights", "find cheap", "cheap flights"} {
		if !rTexts[want] {
			t.Errorf("onlyR missing %q: %v", want, keys(rTexts))
		}
	}
	for _, want := range []string{"flying", "get", "discounts", "get discounts"} {
		if !sTexts[want] {
			t.Errorf("onlyS missing %q: %v", want, keys(sTexts))
		}
	}
	// Shared text must not appear on either side; "!" is normalised away
	// so line 3 contributes nothing.
	for _, bad := range []string{"xyz", "airlines", "new york", "great rates", "costs"} {
		if rTexts[bad] || sTexts[bad] {
			t.Errorf("shared term %q leaked into diff", bad)
		}
	}
}

func TestGreedyMatchFollowsDatabase(t *testing.T) {
	// Teach the database that find cheap -> get discounts is a frequent
	// rewrite, as the paper's intuition demands.
	db := featstats.New(1)
	for i := 0; i < 20; i++ {
		db.Observe(featstats.RewriteKey("find cheap", "get discounts"), 1)
		db.Observe(featstats.RewriteKey("flights", "flying"), 1)
	}
	db.Observe(featstats.RewriteKey("find cheap", "flying"), 1) // rare alternative

	m := NewMatcher(db)
	m.MaxN = 2
	r, s := paperPair()
	match := m.MatchTerms(m.Diff(r, s))

	got := make(map[string]string)
	for _, p := range match.Pairs {
		got[p.From.Text] = p.To.Text
	}
	if got["find cheap"] != "get discounts" {
		t.Errorf("find cheap matched to %q, want get discounts (pairs: %v)", got["find cheap"], match.Pairs)
	}
	if got["flights"] != "flying" {
		t.Errorf("flights matched to %q, want flying", got["flights"])
	}
}

func TestPaperRewriteTuple(t *testing.T) {
	// The paper's rewrite tuple is (find cheap:1:2, get discounts:5:2).
	db := featstats.New(1)
	for i := 0; i < 10; i++ {
		db.Observe(featstats.RewriteKey("find cheap", "get discounts"), 1)
	}
	m := NewMatcher(db)
	m.MaxN = 2
	r, s := paperPair()
	match := m.MatchTerms(m.Diff(r, s))
	for _, p := range match.Pairs {
		if p.From.Text == "find cheap" {
			if p.From.Key() != "find cheap:1:2" {
				t.Errorf("From key = %q, want find cheap:1:2", p.From.Key())
			}
			if p.To.Key() != "get discounts:5:2" {
				t.Errorf("To key = %q, want get discounts:5:2", p.To.Key())
			}
			return
		}
	}
	t.Fatalf("find cheap not matched: %+v", match.Pairs)
}

func TestMatchedSpansBlockOverlaps(t *testing.T) {
	db := featstats.New(1)
	for i := 0; i < 10; i++ {
		db.Observe(featstats.RewriteKey("find cheap", "get discounts"), 1)
	}
	m := NewMatcher(db)
	m.MaxN = 2
	r, s := paperPair()
	match := m.MatchTerms(m.Diff(r, s))

	// Once "find cheap" [1,3) is matched, the overlapping unigrams
	// "find" and "cheap" must appear neither in pairs nor leftovers.
	for _, p := range match.Pairs {
		if p.From.Text == "find" || p.From.Text == "cheap" {
			t.Errorf("overlapping unigram %q was matched", p.From.Text)
		}
	}
	for _, t2 := range match.OnlyR {
		if t2.Text == "find" || t2.Text == "cheap" || t2.Text == "find cheap" {
			t.Errorf("covered term %q leaked into leftovers", t2.Text)
		}
	}
}

func TestMatchTermsNoCandidates(t *testing.T) {
	m := &Matcher{MaxN: 1}
	onlyR := textproc.ExtractTerms([]string{"alpha"}, 1)
	// Different line: no same-line candidate exists.
	onlyS := textproc.ExtractTerms([]string{"", "beta"}, 1)
	match := m.MatchTerms(onlyR, onlyS)
	if len(match.Pairs) != 0 {
		t.Errorf("expected no pairs, got %v", match.Pairs)
	}
	if len(match.OnlyR) != 1 || len(match.OnlyS) != 1 {
		t.Errorf("leftovers wrong: %v / %v", match.OnlyR, match.OnlyS)
	}
}

func TestCrossLineOption(t *testing.T) {
	m := &Matcher{MaxN: 1, AllowCrossLine: true}
	onlyR := textproc.ExtractTerms([]string{"alpha"}, 1)
	onlyS := textproc.ExtractTerms([]string{"", "beta"}, 1)
	match := m.MatchTerms(onlyR, onlyS)
	if len(match.Pairs) != 1 {
		t.Fatalf("cross-line match expected, got %v", match.Pairs)
	}
}

func TestIdenticalCreativesNothingToMatch(t *testing.T) {
	m := &Matcher{MaxN: 3}
	r := snippet.Creative{ID: "r", Lines: []string{"Same text here", "And here"}}
	s := snippet.Creative{ID: "s", Lines: []string{"Same text here!", "And here"}}
	match := m.MatchTerms(m.Diff(r, s))
	if len(match.Pairs)+len(match.OnlyR)+len(match.OnlyS) != 0 {
		t.Errorf("identical creatives produced %+v", match)
	}
}

func TestMatchDeterminism(t *testing.T) {
	db := featstats.New(1)
	m := NewMatcher(db)
	m.MaxN = 2
	r, s := paperPair()
	first := m.MatchTerms(m.Diff(r, s))
	for i := 0; i < 10; i++ {
		again := m.MatchTerms(m.Diff(r, s))
		if len(again.Pairs) != len(first.Pairs) {
			t.Fatal("match count varies across runs")
		}
		for j := range again.Pairs {
			if again.Pairs[j] != first.Pairs[j] {
				t.Fatalf("match order varies: %v vs %v", again.Pairs[j], first.Pairs[j])
			}
		}
	}
}

func TestOverlaps(t *testing.T) {
	a := textproc.Term{Text: "find cheap", N: 2, Line: 2, Pos: 1}
	tests := []struct {
		b    textproc.Term
		want bool
	}{
		{textproc.Term{Text: "find", N: 1, Line: 2, Pos: 1}, true},
		{textproc.Term{Text: "cheap", N: 1, Line: 2, Pos: 2}, true},
		{textproc.Term{Text: "flights", N: 1, Line: 2, Pos: 3}, false},
		{textproc.Term{Text: "find", N: 1, Line: 1, Pos: 1}, false},
		{textproc.Term{Text: "cheap flights", N: 2, Line: 2, Pos: 2}, true},
	}
	for _, tt := range tests {
		if got := overlaps(a, tt.b); got != tt.want {
			t.Errorf("overlaps(%v, %v) = %v, want %v", a, tt.b, got, tt.want)
		}
	}
}

func texts(ts []textproc.Term) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[t.Text] = true
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkMatchPair(b *testing.B) {
	db := featstats.New(1)
	for i := 0; i < 10; i++ {
		db.Observe(featstats.RewriteKey("find cheap", "get discounts"), 1)
		db.Observe(featstats.RewriteKey("flights", "flying"), 1)
	}
	m := NewMatcher(db)
	r, s := paperPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchTerms(m.Diff(r, s))
	}
}
