package textproc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"lowercases", "Find Cheap Flights", "find cheap flights"},
		{"keeps percent", "20% Off Today", "20% off today"},
		{"keeps dollar", "From $99", "from $99"},
		{"strips punctuation", "Flying to New York? Get discounts.", "flying to new york get discounts"},
		{"strips exclamation", "Great rates!", "great rates"},
		{"drops apostrophe", "Don't Miss Out", "dont miss out"},
		{"collapses runs", "no -- reservation  costs", "no reservation costs"},
		{"empty", "", ""},
		{"only punctuation", "?!.,", ""},
		{"leading punctuation", "...sale", "sale"},
		{"unicode letters", "Café Déals", "café déals"},
		{"digits kept", "24/7 support", "24 7 support"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Normalize(tt.in); got != tt.want {
				t.Errorf("Normalize(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeNoUpperNoEdgeSpace(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		if n != strings.ToLower(n) {
			return false
		}
		return !strings.HasPrefix(n, " ") && !strings.HasSuffix(n, " ") && !strings.Contains(n, "  ")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// oracleTerms is ExtractTerms' independent statement: the normalised
// line split by strings.Fields, each n-gram its fields joined by single
// spaces, ordered by line, then gram size, then position.
func oracleTerms(lines []string, maxN int) []Term {
	maxN = min(max(maxN, 1), 3)
	var terms []Term
	for li, line := range lines {
		fields := strings.Fields(Normalize(line))
		for n := 1; n <= maxN; n++ {
			for i := 0; i+n <= len(fields); i++ {
				terms = append(terms, Term{Text: strings.Join(fields[i:i+n], " "), N: n, Line: li + 1, Pos: i + 1})
			}
		}
	}
	return terms
}

func TestTokenize(t *testing.T) {
	var sc Scratch
	line := "Find cheap flights to New York."
	var got []string
	for _, sp := range sc.Tokenize(line) {
		got = append(got, string(sc.Norm[sp.Start:sp.End]))
	}
	want := []string{"find", "cheap", "flights", "to", "new", "york"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %q, want %q", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	var sc Scratch
	if got := sc.Tokenize("  ?! "); len(got) != 0 {
		t.Errorf("Tokenize of punctuation = %v, want no spans", got)
	}
	if got := ExtractTerms([]string{"  ?! "}, 3); got != nil {
		t.Errorf("ExtractTerms of punctuation = %v, want nil", got)
	}
}

// TestNGrams: the terms of each gram size ExtractTerms cuts from one
// line, and none of a size outside [1, 3].
func TestNGrams(t *testing.T) {
	terms := ExtractTerms([]string{"find cheap flights"}, 99)
	tests := []struct {
		n    int
		want []Term
	}{
		{1, []Term{{"find", 1, 1, 1}, {"cheap", 1, 1, 2}, {"flights", 1, 1, 3}}},
		{2, []Term{{"find cheap", 2, 1, 1}, {"cheap flights", 2, 1, 2}}},
		{3, []Term{{"find cheap flights", 3, 1, 1}}},
		{4, nil},
		{0, nil},
		{-1, nil},
	}
	for _, tt := range tests {
		var got []Term
		for _, tm := range terms {
			if tm.N == tt.n {
				got = append(got, tm)
			}
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("n=%d grams = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestNGramCount(t *testing.T) {
	// Property: a line of k tokens yields max(0, k-n+1) n-grams.
	var sc Scratch
	f := func(words []string, n uint8) bool {
		line := strings.Join(words, " ")
		k := len(sc.Tokenize(line))
		gn := int(n%3) + 1
		got := 0
		for _, tm := range ExtractTerms([]string{line}, 3) {
			if tm.N == gn {
				got++
			}
		}
		return got == max(0, k-gn+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExtractTermsMatchesFieldsOracle holds ExtractTerms, a walk over
// Scratch.Tokenize spans, to oracleTerms on seeded random snippets of
// one to three lines — mixed case, digits, "$%", apostrophes, non-ASCII
// letters and punctuation, control bytes, long runs that cross the
// tokeniser's 64-byte blocks — at every maxN from -1 to 5.
func TestExtractTermsMatchesFieldsOracle(t *testing.T) {
	pieces := []string{
		"Find", "cheap", "FLIGHTS", "20%", "$99", "Don't", "O'Brien's", "''", "it's",
		"Ünïted", "café", "İstanbul", "ΔΣ", "straße", "x1", "a", "bcdefghijklmnopqrstuvwxyz0123456789",
		" ", "  ", ", ", "!", "?", " - ", "\t", "\n", "\x00", "\x01", "\x7f", "/", "\u00a0", "\u2003", "\xff",
	}
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 2000; trial++ {
		lines := make([]string, 1+rng.Intn(3))
		for i := range lines {
			var b strings.Builder
			for n := rng.Intn(24); n > 0; n-- {
				b.WriteString(pieces[rng.Intn(len(pieces))])
				if rng.Intn(2) == 0 {
					b.WriteByte(' ')
				}
			}
			lines[i] = b.String()
		}
		for maxN := -1; maxN <= 5; maxN++ {
			got, want := ExtractTerms(lines, maxN), oracleTerms(lines, maxN)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ExtractTerms(%q, %d) =\n%v\nwant\n%v", lines, maxN, got, want)
			}
		}
	}
}

func TestExtractTerms(t *testing.T) {
	lines := []string{"XYZ Airlines", "Find cheap flights"}
	terms := ExtractTerms(lines, 3)

	// Line 1: 2 tokens -> 2 uni + 1 bi = 3. Line 2: 3 tokens -> 3+2+1 = 6.
	if len(terms) != 9 {
		t.Fatalf("got %d terms, want 9: %v", len(terms), terms)
	}
	// Spot-check coordinates.
	found := false
	for _, tm := range terms {
		if tm.Text == "find cheap" {
			found = true
			if tm.Line != 2 || tm.Pos != 1 || tm.N != 2 {
				t.Errorf("find cheap at line=%d pos=%d n=%d, want 2/1/2", tm.Line, tm.Pos, tm.N)
			}
		}
	}
	if !found {
		t.Error("bigram 'find cheap' not extracted")
	}
}

func TestExtractTermsClampsN(t *testing.T) {
	lines := []string{"a b c d e"}
	if got, want := len(ExtractTerms(lines, 99)), len(ExtractTerms(lines, 3)); got != want {
		t.Errorf("maxN clamp: got %d terms, want %d", got, want)
	}
	if got, want := len(ExtractTerms(lines, 0)), len(ExtractTerms(lines, 1)); got != want {
		t.Errorf("minN clamp: got %d terms, want %d", got, want)
	}
}

func TestTermKey(t *testing.T) {
	tm := Term{Text: "find cheap", N: 2, Line: 2, Pos: 1}
	if got, want := tm.Key(), "find cheap:1:2"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	tm2 := Term{Text: "x", N: 1, Line: 12, Pos: 10}
	if got, want := tm2.Key(), "x:10:12"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

func BenchmarkExtractTerms(b *testing.B) {
	lines := []string{
		"XYZ Airlines Official Site",
		"Find cheap flights to New York today",
		"No reservation costs. Great rates!",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractTerms(lines, 3)
	}
}
