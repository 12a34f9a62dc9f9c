package core

// Compiled serving path: the map-based Model is the fitting and
// analysis surface; CompiledModel is its read-optimised twin, built
// once per install (engine.NewMicroScorer compiles on wrap, so
// Register/LoadSnapshot/hot-swap all publish pre-compiled versions).
//
// Compilation mirrors what internal/clickmodel's compile layer did for
// training: the relevance keys, distinct by construction, are listed
// and frozen (textproc.FreezeVocab, the one builder) into the flat
// textproc.FrozenVocab the scoring loop looks windows up in, the
// clamped relevance and its logarithm land in flat ID-indexed
// []float64 (the log is precomputed, so the serving loop never calls
// math.Log), and the attention layer is sampled into a dense
// (line, pos) table covering the micro-positions real snippets use.
// ScoreSnippet then fuses CTR and expected score into one pass over
// byte-span token windows — no Term structs, no joined n-gram strings,
// no map lookups, zero steady-state allocations.

import (
	"math"

	"repro/internal/textproc"
)

// Attention-table bounds: snippets are at most a handful of lines of
// short ad text, so a small dense table covers essentially every term;
// coordinates beyond it fall back to the exact Attention interface.
const (
	attTableLines = 8
	attTableCols  = 32
)

// CompiledModel is a Model compiled for serving: interned relevance
// IDs, precomputed log-relevances, and a dense attention table. It is
// immutable after Compile and safe for concurrent use; the source
// Model must not be mutated once compiled (the same contract the
// engine has always imposed on installed scorers).
type CompiledModel struct {
	src *Model

	// vocab is frozen — flat blob/offsets/table/tags slices with no
	// interior pointers — so a compiled model is the SAME shape whether
	// Compile built it on the heap or CompiledFromArtifact wrapped a
	// read-only file mapping (v2 snapshots). The scoring loop cannot
	// tell.
	vocab  *textproc.FrozenVocab
	rel    []float64 // id -> clamped relevance
	logRel []float64 // id -> log(clamped relevance), precomputed

	defRel    float64 // clamped DefaultRelevance for unknown terms
	defLogRel float64

	att     Attention // exact fallback for coordinates beyond the table
	attW    []float64 // dense table: attW[(line-1)*attTableCols + pos-1]
	attFull bool      // FullAttention short-circuit: every a_i = 1
}

// clampRel mirrors Model.TermRelevance's clamp to (0, 1] so that the
// precomputed logarithm is finite.
func clampRel(r float64) float64 {
	if r < 1e-9 {
		return 1e-9
	}
	if r > 1 {
		return 1
	}
	return r
}

// Compile builds the serving-optimised form of the model. The model
// must be fully fitted: later mutations of the Relevance map or the
// Attention layer are not observed by the compiled form.
func (m *Model) Compile() *CompiledModel {
	rel := make([]float64, len(m.Relevance))
	terms := make([]string, 0, len(m.Relevance))
	for t, r := range m.Relevance {
		rel[len(terms)] = clampRel(r)
		terms = append(terms, t)
	}
	return m.compile(terms, rel)
}

// compile builds the compiled form over the model's terms, term i
// with clamped relevance rel[i].
func (m *Model) compile(terms []string, rel []float64) *CompiledModel {
	att := m.attention()
	c := &CompiledModel{src: m, rel: rel, att: att}
	if _, ok := att.(FullAttention); ok {
		c.attFull = true
	}

	def := m.DefaultRelevance
	if def == 0 {
		def = 0.5
	}
	c.defRel = clampRel(def)
	c.defLogRel = math.Log(c.defRel)

	c.vocab = textproc.FreezeVocab(terms)
	c.logRel = make([]float64, len(c.rel))
	for id, r := range c.rel {
		c.logRel[id] = math.Log(r)
	}

	if !c.attFull {
		c.attW = make([]float64, attTableLines*attTableCols)
		for line := 1; line <= attTableLines; line++ {
			for pos := 1; pos <= attTableCols; pos++ {
				c.attW[(line-1)*attTableCols+pos-1] = att.Examine(line, pos)
			}
		}
	}
	return c
}

// Source returns the Model this compiled form was built from.
func (c *CompiledModel) Source() *Model { return c.src }

// NumParams reports the interned relevance-table size.
func (c *CompiledModel) NumParams() int { return c.vocab.Len() }

// examine is the dense-table attention lookup; out-of-table
// coordinates (deep lines, very long lines) take the exact interface
// path, so the table is a cache, never an approximation.
func (c *CompiledModel) examine(line, pos int) float64 {
	if c.attFull {
		return 1
	}
	if line >= 1 && line <= attTableLines && pos >= 1 && pos <= attTableCols {
		return c.attW[(line-1)*attTableCols+pos-1]
	}
	return c.att.Examine(line, pos)
}

// ScoreSnippet computes, in one fused pass and without allocating,
// the micro CTR — the exact expectation of Eq. 3 under independent
// micro-examination, Π (a_i·r_i + 1 − a_i) — and the expected
// log-probability score Σ a_i·log r_i whose pairwise differences
// reproduce Eq. 5. It is the only scoring pass production code runs;
// the term-by-term statement of the same equations over the Relevance
// map lives in the test-only package coreref. Clamping and the
// empty/NaN CTR guard match that reference; terms accumulate in
// window-start order rather than gram-size order, so the only
// divergence is float re-association, and the parity suite pins both
// CTR and Score to 1e-12.
//
// sc is the caller-owned tokenisation scratch (one per goroutine);
// every n-gram window resolves through the interned vocab by byte
// hashing, so no term string is ever materialised.
func (c *CompiledModel) ScoreSnippet(lines []string, maxN int, sc *textproc.Scratch) (ctr, score float64) {
	maxN = textproc.GramOrder(maxN)
	ctr = 1.0
	terms := 0
	vocab := c.vocab
	for li, line := range lines {
		spans := sc.Tokenize(line)
		lineNo := li + 1
		// Iterate by window start: the 1..maxN windows anchored at token
		// i share the attention value (a term's micro-position is its
		// first token's) and share hash prefixes, so one attention
		// lookup and a running window hash cover all gram sizes.
		for i := range spans {
			a := c.examine(lineNo, i+1)
			am := 1 - a
			nmax := maxN
			if left := len(spans) - i; left < nmax {
				nmax = left
			}
			h := textproc.NGramHashSeed
			start := spans[i].Start
			for n := 1; n <= nmax; n++ {
				sp := spans[i+n-1]
				h = textproc.ExtendNGramHash(h, sp.Hash)
				r, lr := c.defRel, c.defLogRel
				if id, ok := vocab.LookupHashed(h, sc.Norm[start:sp.End]); ok {
					r, lr = c.rel[id], c.logRel[id]
				}
				ctr *= a*r + am
				score += a * lr
			}
			terms += nmax
		}
	}
	if terms == 0 || math.IsNaN(ctr) {
		ctr = 0
	}
	return ctr, score
}
