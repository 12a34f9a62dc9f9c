package textproc

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestNormalizeIntoParity pins the zero-copy normaliser to Normalize
// byte for byte, on the hand-picked signal characters and under
// randomised input.
func TestNormalizeIntoParity(t *testing.T) {
	cases := []string{
		"Find Cheap Flights", "20% Off Today!", "From $99", "Don't Miss Out",
		"no -- reservation  costs", "", "?!.,", "...sale", "Café Déals",
		"24/7 support", "'''", "a'b c'd", "a !'b", "trailing space ",
		" $ % ' mixed $5 o'clock", "ÉCLAIR – 50%",
	}
	for _, in := range cases {
		if got, want := string(NormalizeInto(nil, in)), Normalize(in); got != want {
			t.Errorf("NormalizeInto(%q) = %q, want %q", in, got, want)
		}
	}
	f := func(s string) bool {
		return string(NormalizeInto(nil, s)) == Normalize(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNormalizeIntoReusesBuffer checks that a warm buffer is reused in
// place rather than reallocated.
func TestNormalizeIntoReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 128)
	out := NormalizeInto(buf, "Find Cheap Flights")
	if &out[0] != &buf[:1][0] {
		t.Error("NormalizeInto reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = NormalizeInto(buf[:0], "Find cheap flights to New York. No reservation costs!")
	})
	if allocs != 0 {
		t.Errorf("warm NormalizeInto allocates %v per run, want 0", allocs)
	}
}

// FuzzNormalize fuzzes the normaliser invariants, seeded with the
// '%', '$' and apostrophe edge cases the ad-text rules special-case.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"20% Off Today!", "From $99", "Don't Miss Out", "%%% $$$ '''",
		"a%b$c'd", "$ % '", "50%% of''f", "O'Brien's $5 o'clock — 100%",
		"", " % ", "'%'$'",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		if got := Normalize(n); got != n {
			t.Errorf("not idempotent: Normalize(%q) = %q, re-normalised %q", s, n, got)
		}
		if n != strings.ToLower(n) {
			t.Errorf("uppercase survived: %q -> %q", s, n)
		}
		if strings.HasPrefix(n, " ") || strings.HasSuffix(n, " ") || strings.Contains(n, "  ") {
			t.Errorf("edge or double space: %q -> %q", s, n)
		}
		if strings.ContainsRune(n, '\'') {
			t.Errorf("apostrophe survived: %q -> %q", s, n)
		}
		if got := string(NormalizeInto(nil, s)); got != n {
			t.Errorf("NormalizeInto diverges: %q vs Normalize %q", got, n)
		}
	})
}

// TestScratchTokenize checks that byte spans reconstruct exactly the
// fields of the normalised line, in order.
func TestScratchTokenize(t *testing.T) {
	var sc Scratch
	lines := []string{
		"Find cheap flights to New York.",
		"20% Off — From $99!",
		"", "   ?! ", "Don't Miss O'Brien's Deals",
	}
	for _, line := range lines {
		spans := sc.Tokenize(line)
		want := strings.Fields(Normalize(line))
		if len(spans) != len(want) {
			t.Fatalf("Tokenize(%q): %d spans, want %d tokens", line, len(spans), len(want))
		}
		for i, sp := range spans {
			if got := string(sc.Norm[sp.Start:sp.End]); got != want[i] {
				t.Errorf("Tokenize(%q) span %d = %q, want %q", line, i, got, want[i])
			}
		}
	}
}

// TestAppendTokensArenaFlush pins appendTokens' arena contract on both
// byte classes: a line appended after a non-empty arena starts flush —
// no joining space before its first token, ASCII or not — so the bytes
// it adds and its span texts are exactly Scratch.Tokenize's.
func TestAppendTokensArenaFlush(t *testing.T) {
	for _, line := range arenaFlushLines {
		var sc Scratch
		want := sc.Tokenize(line)

		arena := []byte("earlier line")
		base := len(arena)
		norm, spans := appendTokens(arena, nil, line)
		if got := string(norm[base:]); got != string(sc.Norm) {
			t.Errorf("appendTokens(%q) added %q, Scratch.Tokenize wrote %q", line, got, sc.Norm)
		}
		if len(spans) != len(want) {
			t.Fatalf("appendTokens(%q): %d spans, want %d", line, len(spans), len(want))
		}
		for i, sp := range spans {
			got, w := string(norm[sp.Start:sp.End]), string(sc.Norm[want[i].Start:want[i].End])
			if got != w || sp.Hash != want[i].Hash || sp.Start-base != want[i].Start {
				t.Errorf("appendTokens(%q) span %d = %q@%d, want %q@%d", line, i, got, sp.Start-base, w, want[i].Start)
			}
		}
	}
}

// arenaFlushLines are TestAppendTokensArenaFlush's inputs, shared with
// FuzzTokenize's seeds.
var arenaFlushLines = []string{
	"été à Paris",
	"ßtraße frei",
	"日本 の 旅",
	"ascii first",
	"— é after a separator",
}

// checkAppendTokens is the differential statement of appendTokens
// against the reference normaliser, for one line appended to an arena
// that already holds prefix bytes: the bytes added are NormalizeInto's,
// the spans are exactly the space-separated fields of those bytes, every
// Hash is hashToken of its field, and neither the arena's prefix nor the
// spans already there are touched.
func checkAppendTokens(t *testing.T, line string, prefix int) {
	t.Helper()
	want := NormalizeInto(nil, line)
	// Tight: the arena has no spare capacity, so the call must grow it.
	// Roomy: it has, so the call writes in place beside the prefix.
	for _, spare := range []int{0, len(line) + 64} {
		arena := make([]byte, prefix, prefix+spare)
		for i := range arena {
			arena[i] = byte(0xa0 + i%7)
		}
		held := append([]byte(nil), arena...)
		sentinel := TokenSpan{Start: -1, End: -2, Hash: 3}
		norm, spans := appendTokens(arena, []TokenSpan{sentinel}, line)
		if !bytes.Equal(arena, held) || !bytes.Equal(norm[:prefix], held) {
			t.Fatalf("appendTokens(%q) at prefix %d, spare %d wrote before the prefix", line, prefix, spare)
		}
		if got := norm[prefix:]; !bytes.Equal(got, want) {
			t.Fatalf("appendTokens(%q) at prefix %d, spare %d added %q, NormalizeInto wrote %q", line, prefix, spare, got, want)
		}
		if len(spans) == 0 || spans[0] != sentinel {
			t.Fatalf("appendTokens(%q) dropped or rewrote the spans it was handed: %v", line, spans)
		}
		spans = spans[1:]
		var fields [][]byte
		if len(want) > 0 {
			fields = bytes.Split(want, []byte{' '})
		}
		if len(spans) != len(fields) {
			t.Fatalf("appendTokens(%q): %d spans over %q, want %d", line, len(spans), want, len(fields))
		}
		at := prefix
		for i, sp := range spans {
			if sp.Start != at || sp.End != at+len(fields[i]) {
				t.Fatalf("appendTokens(%q) span %d = [%d,%d), want [%d,%d) (%q)", line, i, sp.Start, sp.End, at, at+len(fields[i]), fields[i])
			}
			if h := hashToken(fields[i]); sp.Hash != h {
				t.Fatalf("appendTokens(%q) span %d (%q) hash %#x, hashToken %#x", line, i, fields[i], sp.Hash, h)
			}
			at = sp.End + 1
		}
	}
}

// tokenizeSeeds are the shapes the block tokeniser has an edge for:
// lines one byte either side of a word, a block and two blocks; a token
// straddling each block edge; the apostrophe (a dropped byte) at the
// first and last byte of a word and of a block, and alone; "$%" runs;
// NUL, DEL and tab; Title Case with punctuation; a non-ASCII rune in the
// first, a middle and the last block; a rune whose lower-case form is
// longer than itself; and the arena-flush regression lines.
func tokenizeSeeds() []string {
	letters := strings.Repeat("Find cheap flights to New York today no reservation costs ", 4)
	seeds := []string{
		"", " ", "a", "'", "'''", "a'", "'a", "a'b", "' a '", "don't", "O'Brien's $5 o'clock",
		"$", "%", "$$$ %%% $5 20% 100%$", "a\x00b", "a\x7fb", "a\tb c\td", "\x00\x00\x00", "Find Cheap Flights, To New-York. Now!",
		"Ⱥ", "Ⱥbc ȺȺ x", "x Ⱥ", strings.Repeat("A", 200), strings.Repeat("'", 70), strings.Repeat("a'", 40),
	}
	for _, n := range []int{7, 8, 9, 63, 64, 65, 127, 128, 129} {
		seeds = append(seeds, letters[:n], strings.Repeat("x", n), strings.Repeat("ab ", n)[:n])
		// A token across the byte at n, and an apostrophe on either side
		// of that byte.
		seeds = append(seeds,
			strings.Repeat(" ", n-3)+"straddle more",
			strings.Repeat(".", n-1)+"'edge' '"+strings.Repeat("z", 9),
			letters[:n-1]+"'"+letters[n:n+20],
			letters[:n]+"'"+letters[n:n+20])
	}
	for _, at := range []int{0, 5, 63, 64, 100, 127, 140, len(letters) - 1} {
		seeds = append(seeds, letters[:at]+"é"+letters[at:], letters[:at]+" — Ⱥ "+letters[at:])
	}
	return append(seeds, arenaFlushLines...)
}

// TestAppendTokensSeeds runs the differential check over the seeds at
// every arena prefix that moves the line against the word grid.
func TestAppendTokensSeeds(t *testing.T) {
	for _, line := range tokenizeSeeds() {
		for prefix := 0; prefix <= 9; prefix++ {
			checkAppendTokens(t, line, prefix)
		}
	}
}

// FuzzTokenize is the differential fuzz target of the block tokeniser
// (appendTokens, under Scratch.Tokenize, CandidateSet.addLine and the
// learner's foldSnippet) against the reference normaliser.
func FuzzTokenize(f *testing.F) {
	for i, seed := range tokenizeSeeds() {
		f.Add(seed, uint8(i))
	}
	f.Fuzz(func(t *testing.T, line string, prefix uint8) {
		checkAppendTokens(t, line, int(prefix))
	})
}

// TestScratchTokenizeZeroAlloc pins the steady-state allocation count
// of the zero-copy path.
func TestScratchTokenizeZeroAlloc(t *testing.T) {
	var sc Scratch
	sc.Tokenize("warm the buffers with a reasonably long line of ad text")
	allocs := testing.AllocsPerRun(100, func() {
		sc.Tokenize("Find cheap flights to New York. No reservation costs!")
	})
	if allocs != 0 {
		t.Errorf("warm Scratch.Tokenize allocates %v per run, want 0", allocs)
	}
}

// TestNGramWindowContiguity is the invariant the compiled scorer
// depends on: the text of an n-gram equals the contiguous byte window
// from the first token's start to the last token's end.
func TestNGramWindowContiguity(t *testing.T) {
	var sc Scratch
	line := "Find cheap flights to New York today"
	spans := sc.Tokenize(line)
	for _, g := range oracleTerms([]string{line}, 3) {
		i := g.Pos - 1
		if win := string(sc.Norm[spans[i].Start:spans[i+g.N-1].End]); win != g.Text {
			t.Errorf("n=%d window %d = %q, want %q", g.N, i, win, g.Text)
		}
	}
}

// TestTermKeyNegative: malformed Terms with negative coordinates
// render sign-correctly, including the one value whose int negation
// overflows.
func TestTermKeyNegative(t *testing.T) {
	tm := Term{Text: "x", N: 1, Line: -12, Pos: -3}
	if got, want := tm.Key(), "x:-3:-12"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	for _, v := range []int{0, 7, -1, -10, 12345, -98765, math.MaxInt, math.MinInt} {
		tm := Term{Text: "x", N: 1, Line: v, Pos: v}
		if got, want := tm.Key(), "x:"+strconv.Itoa(v)+":"+strconv.Itoa(v); got != want {
			t.Errorf("Key at %d = %q, want %q", v, got, want)
		}
	}
}
