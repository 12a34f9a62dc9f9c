// Package textproc provides text normalisation, tokenisation, n-gram
// extraction and the vocabularies terms are numbered in.
//
// Snippets (ad creatives) are short multi-line texts. The micro-browsing
// model reasons about terms — unigrams, bigrams and trigrams — located at a
// (line, position) coordinate, so every extracted Term carries both the
// surface text and where it sits in the snippet. Positions are 1-based, as
// in the paper's examples ("find cheap" at position 1 of line 2).
//
// The splitting rule is stated once: Scratch.Tokenize normalises a line
// and cuts it into token spans, and a term is the bytes of a run of 1 to
// GramOrder(maxN) spans — in ExtractTerms, the scorers, CandidateSet and
// the learner's fold alike. Vocab interns strings as they arrive;
// FreezeVocab turns a list of them into the read-only FrozenVocab that
// artifacts carry and the scorers look windows up in.
package textproc

import "strconv"

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
	return t.Text + ":" + strconv.Itoa(t.Pos) + ":" + strconv.Itoa(t.Line)
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

// GramOrder clamps a requested n-gram order to [1, 3]: the paper uses
// unigrams, bigrams and trigrams. Every reader of a max_n clamps here.
func GramOrder(maxN int) int { return min(max(maxN, 1), 3) }

// ExtractTerms tokenises every line and returns all terms of gram sizes
// 1..GramOrder(maxN) with (line, position) coordinates, ordered by line,
// then gram size, then position. Lines are numbered from 1. A term is a
// window of Scratch.Tokenize spans, as every scorer cuts it: its text is
// the normalised bytes from its first token's start to its last token's
// end.
func ExtractTerms(lines []string, maxN int) []Term {
	maxN = GramOrder(maxN)
	var terms []Term
	var sc Scratch
	for li, line := range lines {
		spans := sc.Tokenize(line)
		norm := string(sc.Norm)
		for n := 1; n <= maxN; n++ {
			for i := 0; i+n <= len(spans); i++ {
				terms = append(terms, Term{Text: norm[spans[i].Start:spans[i+n-1].End], N: n, Line: li + 1, Pos: i + 1})
			}
		}
	}
	return terms
}
