package snippet

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

// mustNew is New but panics on error, for fixtures.
func mustNew(id string, lines ...string) Creative {
	c, err := New(id, lines...)
	if err != nil {
		panic(err)
	}
	return c
}

// DiffLines returns the 1-based indices of lines whose normalised text
// differs between c and o. Lines present in only one creative count as
// differing.
func (c Creative) DiffLines(o Creative) []int {
	n := len(c.Lines)
	if len(o.Lines) > n {
		n = len(o.Lines)
	}
	var diff []int
	for i := 0; i < n; i++ {
		var a, b string
		if i < len(c.Lines) {
			a = textproc.Normalize(c.Lines[i])
		}
		if i < len(o.Lines) {
			b = textproc.Normalize(o.Lines[i])
		}
		if a != b {
			diff = append(diff, i+1)
		}
	}
	return diff
}

func TestNewValidation(t *testing.T) {
	if _, err := New("c1"); err == nil {
		t.Error("New with no lines should fail")
	}
	if _, err := New("c1", "a", "b", "c", "d"); err == nil {
		t.Error("New with 4 lines should fail")
	}
	c, err := New("c1", "Line one", "Line two")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if len(c.Lines) != 2 {
		t.Errorf("got %d lines, want 2", len(c.Lines))
	}
}

func TestNewCopiesLines(t *testing.T) {
	src := []string{"a", "b"}
	c, _ := New("c1", src...)
	src[0] = "mutated"
	if c.Lines[0] != "a" {
		t.Error("New aliased the caller's slice")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mustNew did not panic on invalid input")
		}
	}()
	mustNew("bad")
}

func TestEqualIgnoresCaseAndPunct(t *testing.T) {
	a := mustNew("a", "XYZ Airlines", "Great rates!")
	b := mustNew("b", "xyz airlines", "great rates")
	if !a.Equal(b) {
		t.Error("creatives equal up to normalisation should be Equal")
	}
	c := mustNew("c", "XYZ Airlines", "Great fares!")
	if a.Equal(c) {
		t.Error("different text should not be Equal")
	}
}

func TestDiffLines(t *testing.T) {
	r := mustNew("r", "XYZ Airlines", "Find cheap flights to New York.", "No reservation costs. Great rates")
	s := mustNew("s", "XYZ Airlines", "Flying to New York? Get discounts.", "No reservation costs. Great rates!")
	got := r.DiffLines(s)
	// Line 3 differs only by '!', which normalisation removes.
	want := []int{2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DiffLines = %v, want %v", got, want)
	}
}

func TestDiffLinesLengthMismatch(t *testing.T) {
	r := mustNew("r", "one line")
	s := mustNew("s", "one line", "second line")
	if got, want := r.DiffLines(s), []int{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("DiffLines = %v, want %v", got, want)
	}
}

func TestCTR(t *testing.T) {
	tests := []struct {
		s    Stats
		want float64
	}{
		{Stats{0, 0}, 0},
		{Stats{100, 5}, 0.05},
		{Stats{1, 1}, 1},
	}
	for _, tt := range tests {
		if got := tt.s.CTR(); got != tt.want {
			t.Errorf("CTR(%+v) = %v, want %v", tt.s, got, tt.want)
		}
	}
}

func TestServeWeight(t *testing.T) {
	// Creative CTR 0.10 in a group averaging 0.05 -> serve weight 2.
	if got := ServeWeight(Stats{100, 10}, 0.05); math.Abs(got-2) > 1e-12 {
		t.Errorf("ServeWeight = %v, want 2", got)
	}
	if got := ServeWeight(Stats{100, 10}, 0); got != 0 {
		t.Errorf("ServeWeight with zero group CTR = %v, want 0", got)
	}
}

func TestPairLabelAndSwap(t *testing.T) {
	p := Pair{SWR: 1.5, SWS: 0.5}
	if p.Label() != +1 {
		t.Errorf("Label = %d, want +1", p.Label())
	}
	q := p.Swap()
	if q.Label() != -1 {
		t.Errorf("swapped Label = %d, want -1", q.Label())
	}
	tie := Pair{SWR: 1, SWS: 1}
	if tie.Label() != 0 {
		t.Errorf("tie Label = %d, want 0", tie.Label())
	}
}

func TestSwapInvolution(t *testing.T) {
	f := func(swr, sws float64, imps1, clicks1 uint16) bool {
		p := Pair{
			R: mustNew("r", "a"), S: mustNew("s", "b"),
			SWR: swr, SWS: sws,
			RStats: Stats{int64(imps1), int64(clicks1)},
		}
		return reflect.DeepEqual(p.Swap().Swap(), p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdGroupCTR(t *testing.T) {
	g := AdGroup{
		Creatives: []Creative{mustNew("a", "x"), mustNew("b", "y")},
		Stats:     []Stats{{100, 10}, {100, 0}},
	}
	if got := g.CTR(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("group CTR = %v, want 0.05", got)
	}
}

func TestAdGroupPairs(t *testing.T) {
	g := AdGroup{
		ID:      "g1",
		Keyword: "cheap flights",
		Creatives: []Creative{
			mustNew("a", "Find cheap flights"),
			mustNew("b", "Get flight discounts"),
			mustNew("c", "Find cheap flights"), // duplicate of a
		},
		Stats: []Stats{{1000, 50}, {1000, 30}, {1000, 40}},
	}
	pairs := g.Pairs(1)
	// (a,b) and (b,c) differ; (a,c) is a text duplicate and is skipped.
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want 2", len(pairs))
	}
	p := pairs[0]
	if p.R.ID != "a" || p.S.ID != "b" {
		t.Errorf("first pair = (%s,%s), want (a,b)", p.R.ID, p.S.ID)
	}
	if p.Label() != +1 {
		t.Errorf("a (CTR .05) vs b (CTR .03): label = %d, want +1", p.Label())
	}
	// Serve weights of the two sides must straddle 1.
	if !(p.SWR > 1 && p.SWS < 1) {
		t.Errorf("serve weights = %v, %v; want >1 and <1", p.SWR, p.SWS)
	}
}

func TestAdGroupPairsMinImpressions(t *testing.T) {
	g := AdGroup{
		Creatives: []Creative{mustNew("a", "x"), mustNew("b", "y")},
		Stats:     []Stats{{5, 1}, {1000, 30}},
	}
	if got := g.Pairs(100); len(got) != 0 {
		t.Errorf("pair with underserved creative should be skipped, got %d", len(got))
	}
	if got := g.Pairs(1); len(got) != 1 {
		t.Errorf("got %d pairs at min=1, want 1", len(got))
	}
}

func TestTermsDelegation(t *testing.T) {
	c := mustNew("c", "Find cheap flights")
	terms := c.Terms(2)
	if len(terms) != 5 { // 3 unigrams + 2 bigrams
		t.Errorf("got %d terms, want 5", len(terms))
	}
}

func TestText(t *testing.T) {
	c := mustNew("c", "A", "B")
	if got, want := c.Text(), "A / B"; got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
}
