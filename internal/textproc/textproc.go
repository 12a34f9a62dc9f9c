// Package textproc provides text normalisation, tokenisation and n-gram
// extraction for snippet text.
//
// Snippets (ad creatives) are short multi-line texts. The micro-browsing
// model reasons about terms — unigrams, bigrams and trigrams — located at a
// (line, position) coordinate, so every extracted Term carries both the
// surface text and where it sits in the snippet. Positions are 1-based, as
// in the paper's examples ("find cheap" at position 1 of line 2).
package textproc

import (
	"strings"
)

// Token is a single normalised word together with its 1-based position
// within its line.
type Token struct {
	Text string
	Pos  int
}

// Term is an n-gram extracted from a snippet line. Text is the
// space-joined normalised token text; N is the gram size; Line and Pos
// locate the first token (both 1-based).
type Term struct {
	Text string
	N    int
	Line int
	Pos  int
}

// Key renders the term in the paper's feature notation "text:pos:line",
// e.g. "find cheap:1:2".
func (t Term) Key() string {
	var b strings.Builder
	b.Grow(len(t.Text) + 8)
	b.WriteString(t.Text)
	b.WriteByte(':')
	writeInt(&b, t.Pos)
	b.WriteByte(':')
	writeInt(&b, t.Line)
	return b.String()
}

// writeInt appends an integer without allocating. Term positions are
// 1-based so negatives never occur in practice, but Key must not emit
// garbage when handed a malformed Term: the sign is peeled off in
// uint space, so even math.MinInt (whose negation overflows int)
// prints correctly.
func writeInt(b *strings.Builder, v int) {
	u := uint(v)
	if v < 0 {
		b.WriteByte('-')
		u = -u // two's-complement negation: exact for every int, MinInt included
	}
	writeUint(b, u)
}

func writeUint(b *strings.Builder, u uint) {
	if u >= 10 {
		writeUint(b, u/10)
	}
	b.WriteByte(byte('0' + u%10))
}

// Normalize lower-cases s and removes punctuation that carries no appeal
// signal. Characters that do carry signal in ad text — digits, '%', '$'
// — are preserved, so "20% off" survives normalisation intact.
// Apostrophes are dropped entirely ("don't" -> "dont") and separator
// runs collapse to single interior spaces. The rules live in
// NormalizeInto (and, fused with span/hash bookkeeping, in
// Scratch.Tokenize); this is the string-allocating convenience form.
func Normalize(s string) string {
	return string(NormalizeInto(nil, s))
}

// Tokenize normalises a line and splits it into positioned tokens.
func Tokenize(line string) []Token {
	fields := strings.Fields(Normalize(line))
	if len(fields) == 0 {
		return nil
	}
	toks := make([]Token, len(fields))
	for i, f := range fields {
		toks[i] = Token{Text: f, Pos: i + 1}
	}
	return toks
}

// NGrams returns all n-grams of exactly size n over toks, preserving the
// position of the first token. It returns nil when the line is shorter
// than n.
func NGrams(toks []Token, n int) []Term {
	if n <= 0 || len(toks) < n {
		return nil
	}
	grams := make([]Term, 0, len(toks)-n+1)
	for i := 0; i+n <= len(toks); i++ {
		grams = append(grams, Term{
			Text: joinTokens(toks[i : i+n]),
			N:    n,
			Pos:  toks[i].Pos,
		})
	}
	return grams
}

func joinTokens(toks []Token) string {
	if len(toks) == 1 {
		return toks[0].Text
	}
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// ExtractTerms tokenises every line and returns all terms of gram sizes
// 1..maxN with (line, position) coordinates. Lines are numbered from 1.
// maxN is clamped to [1, 3]: the paper uses unigrams, bigrams and
// trigrams.
func ExtractTerms(lines []string, maxN int) []Term {
	if maxN < 1 {
		maxN = 1
	}
	if maxN > 3 {
		maxN = 3
	}
	var terms []Term
	for li, line := range lines {
		toks := Tokenize(line)
		for n := 1; n <= maxN; n++ {
			for _, g := range NGrams(toks, n) {
				g.Line = li + 1
				terms = append(terms, g)
			}
		}
	}
	return terms
}
