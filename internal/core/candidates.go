package core

// Candidate-set scoring: the /v1/optimize workload is one query × N
// candidate snippets that are edits of a common base, so candidates
// share almost all of their lines. ScoreSnippet pays tokenisation,
// vocab lookups and the attention×relevance walk per candidate;
// ScoreCandidates pays them per DISTINCT (line, line-number) pair —
// a candidate differing from the base in one line re-scores only that
// line, and the rest of its CTR/score is combined from cached per-line
// partials. Both the CTR (a product of per-term factors) and the
// expected score (a sum) factor exactly across lines, so the
// combination is lossless up to float re-association, which the parity
// suite pins at 1e-12 against the reference in package coreref.

import (
	"math"

	"repro/internal/textproc"
)

// CandidateScore is one candidate's fused scoring result, the
// candidate-set analogue of ScoreSnippet's (ctr, score) pair.
type CandidateScore struct {
	// CTR is the exact Eq. 3 expectation Π (a·r + 1 − a).
	CTR float64
	// Score is the expected log-probability Σ a·log r whose pairwise
	// differences reproduce Eq. 5.
	Score float64
}

// candCacheLines bounds the per-line partial cache by line number:
// snippets are at most a handful of lines (the attention table covers
// 8), so partials are cached for line numbers 1..candCacheLines and
// deeper lines — which cannot occur in real creatives — recompute.
const candCacheLines = attTableLines

// candCell is one cached per-(line, lineNo) partial: the line's CTR
// factor, score contribution and term count. epoch stamps validity so
// Reset is O(1) for the cache.
type candCell struct {
	epoch uint32
	terms int32
	ctr   float64
	score float64
}

// CandidateScratch is the reusable working set of one candidate-set
// scoring pass: the shared line-dedup/tokenisation arena, the
// per-(line, lineNo) partial cache, and the flattened candidate→line
// index. Owned by one goroutine at a time; the zero value is ready.
type CandidateScratch struct {
	set   textproc.CandidateSet
	cells []candCell
	epoch uint32

	lineIDs []textproc.LineID
	offs    []int32
}

// reset opens a new scoring pass: forget all lines, invalidate every
// cached partial by epoch bump.
func (cs *CandidateScratch) reset() {
	cs.set.Reset()
	cs.epoch++
	cs.lineIDs = cs.lineIDs[:0]
	cs.offs = cs.offs[:0]
}

// ScoreCandidates scores every candidate snippet in one amortised
// pass, writing into out (reused when it has the capacity) and
// returning it. Semantics per candidate are exactly ScoreSnippet's:
// same gram-order clamp, same unknown-term default, same empty/NaN
// CTR guard. cs carries all working state; a warm scratch allocates
// nothing.
//
//mb:noalloc
func (c *CompiledModel) ScoreCandidates(cands [][]string, maxN int, cs *CandidateScratch, out []CandidateScore) []CandidateScore {
	maxN = textproc.GramOrder(maxN)
	cs.reset()

	// Pass 1: dedup every candidate's lines into the shared set. Each
	// distinct line is tokenised here, exactly once.
	for _, lines := range cands {
		cs.offs = append(cs.offs, int32(len(cs.lineIDs)))
		for _, ln := range lines {
			cs.lineIDs = append(cs.lineIDs, cs.set.AddLine(ln))
		}
	}
	cs.offs = append(cs.offs, int32(len(cs.lineIDs)))

	need := cs.set.Len() * candCacheLines
	if cap(cs.cells) < need {
		cs.cells = make([]candCell, need) //mb:allocok capacity miss: first set this size, then reused
	}
	cs.cells = cs.cells[:need]
	if cap(out) >= len(cands) {
		out = out[:len(cands)]
	} else {
		out = make([]CandidateScore, len(cands)) //mb:allocok capacity miss: caller reuses across calls
	}

	// Pass 2: combine per-line partials, computing each distinct
	// (line, lineNo) pair at most once.
	for k := range cands {
		ctr, score := 1.0, 0.0
		terms := 0
		ids := cs.lineIDs[cs.offs[k]:cs.offs[k+1]]
		for j, id := range ids {
			lineNo := j + 1
			var lctr, lscore float64
			var lterms int
			if lineNo <= candCacheLines {
				cell := &cs.cells[int(id)*candCacheLines+j]
				if cell.epoch != cs.epoch {
					cell.ctr, cell.score, cell.terms = c.scoreCandLine(cs, id, lineNo, maxN)
					cell.epoch = cs.epoch
				}
				lctr, lscore, lterms = cell.ctr, cell.score, int(cell.terms)
			} else {
				var lt int32
				lctr, lscore, lt = c.scoreCandLine(cs, id, lineNo, maxN)
				lterms = int(lt)
			}
			ctr *= lctr
			score += lscore
			terms += lterms
		}
		if terms == 0 || math.IsNaN(ctr) {
			ctr = 0
		}
		out[k] = CandidateScore{CTR: ctr, Score: score}
	}
	return out
}

// scoreCandLine is ScoreSnippet's inner loop for one line at one line
// number, reading memoised term IDs instead of re-hashing windows.
// The per-window float operations run in the same order as
// ScoreSnippet's, so a single-line snippet matches it bit for bit.
//
//mb:noalloc
func (c *CompiledModel) scoreCandLine(cs *CandidateScratch, id textproc.LineID, lineNo, maxN int) (ctr, score float64, terms int32) {
	ids := cs.set.Terms(id, maxN, c.vocab)
	ntok := cs.set.Tokens(id)
	ctr = 1.0
	for i := 0; i < ntok; i++ {
		a := c.examine(lineNo, i+1)
		am := 1 - a
		nmax := maxN
		if left := ntok - i; left < nmax {
			nmax = left
		}
		row := ids[i*maxN:]
		for n := 0; n < nmax; n++ {
			r, lr := c.defRel, c.defLogRel
			if tid := row[n]; tid >= 0 {
				r, lr = c.rel[tid], c.logRel[tid]
			}
			ctr *= a*r + am
			score += a * lr
		}
		terms += int32(nmax)
	}
	return ctr, score, terms
}
