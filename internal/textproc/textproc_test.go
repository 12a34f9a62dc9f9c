package textproc

import (
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

func TestTokenize(t *testing.T) {
	got := Tokenize("Find cheap flights to New York.")
	want := []Token{
		{"find", 1}, {"cheap", 2}, {"flights", 3}, {"to", 4}, {"new", 5}, {"york", 6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize("  ?! "); got != nil {
		t.Errorf("Tokenize of punctuation = %v, want nil", got)
	}
}

func TestNGrams(t *testing.T) {
	toks := Tokenize("find cheap flights")
	tests := []struct {
		n    int
		want []Term
	}{
		{1, []Term{{"find", 1, 0, 1}, {"cheap", 1, 0, 2}, {"flights", 1, 0, 3}}},
		{2, []Term{{"find cheap", 2, 0, 1}, {"cheap flights", 2, 0, 2}}},
		{3, []Term{{"find cheap flights", 3, 0, 1}}},
		{4, nil},
		{0, nil},
		{-1, nil},
	}
	for _, tt := range tests {
		got := NGrams(toks, tt.n)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("NGrams(n=%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestNGramCount(t *testing.T) {
	// Property: a line of k tokens yields max(0, k-n+1) n-grams.
	f := func(words []string, n uint8) bool {
		line := strings.Join(words, " ")
		toks := Tokenize(line)
		gn := int(n%4) + 1
		got := len(NGrams(toks, gn))
		want := len(toks) - gn + 1
		if want < 0 {
			want = 0
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

func BenchmarkTokenize(b *testing.B) {
	line := "Find cheap flights to New York. No reservation costs, great rates!"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(line)
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
