package clickmodel

import (
	"errors"
	"strings"
)

// Stats is the sufficient-statistics form of the counting-family click
// models (SDBN, Cascade, DCM): seven dense arrays, per (query, doc) pair
// and per position, that their closed-form estimates (FitStats, below —
// the only place those are written) read and nothing else. One rule,
// tally, says what an impression adds to them, and two fillers apply it:
// Add interns as it goes and grows the arrays one session at a time, so
// an online learner folds live click feedback into model-ready counts
// without re-compiling history on every refit; logStats fills them in one
// pass from a CompiledLog, whose pairs are interned already, and is all
// the models' FitLog does before FitStats.
//
//   - clicks / examLast — clicks and impressions at positions up to
//     and including the last click (the whole list when there is no
//     click): SDBN's attractiveness ratio and DCM's alpha.
//   - satNum            — sessions where the pair was the last click:
//     SDBN's satisfaction numerator (its denominator is clicks).
//   - clickFirst / examFirst — the same counts truncated at the first
//     click: the cascade model's click/examination ratio.
//   - clickAt / lastAt  — per-position click and last-click counts:
//     DCM's lambda.
//
// Counts are float64 so Decay can age old traffic out exponentially —
// the sliding-window semantics of the online loop. Merge folds one
// accumulator into another (per-shard deltas into a global table), and
// Reset zeroes the counts while keeping the interned vocabulary, so a
// steady-state delta shard allocates nothing.
//
// A Stats is not safe for concurrent use; the stream layer gives each
// ingest shard its own and serialises merges.
type Stats struct {
	queries *Vocab
	pairIDs map[pairKey]int32
	pairs   []qd

	clicks     []float64 // per pair: clicks (every click is <= the last click)
	examLast   []float64 // per pair: impressions at positions <= last click
	satNum     []float64 // per pair: sessions where the pair was the last click
	clickFirst []float64 // per pair: clicks at positions <= first click
	examFirst  []float64 // per pair: impressions at positions <= first click

	clickAt []float64 // per position: clicks
	lastAt  []float64 // per position: last clicks

	sessions float64 // decayed session mass
	added    uint64  // sessions ever added (undecayed)
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{queries: NewVocab(), pairIDs: make(map[pairKey]int32)}
}

// pairID interns a (query ID, doc) pair, growing every per-pair array
// in step so the count slices always cover pair IDs densely. Like
// Vocab.ID it keeps a copy of a new doc, not the caller's string.
func (st *Stats) pairID(qid int32, doc string) int32 {
	if id, ok := st.pairIDs[pairKey{qid, doc}]; ok {
		return id
	}
	doc = strings.Clone(doc)
	id := int32(len(st.pairs))
	st.pairIDs[pairKey{qid, doc}] = id
	st.pairs = append(st.pairs, qd{st.queries.String(qid), doc})
	st.clicks = append(st.clicks, 0)
	st.examLast = append(st.examLast, 0)
	st.satNum = append(st.satNum, 0)
	st.clickFirst = append(st.clickFirst, 0)
	st.examFirst = append(st.examFirst, 0)
	return id
}

// growPos extends the per-position arrays to cover n positions.
func (st *Stats) growPos(n int) {
	for len(st.clickAt) < n {
		st.clickAt = append(st.clickAt, 0)
		st.lastAt = append(st.lastAt, 0)
	}
}

// tally is the counting rule, once: what the impression of pair p at
// 0-based position pos, at or above its session's last click (anywhere
// in a session without one), adds to the seven arrays. last and first
// are the session's last and first click positions, -1 for none. Small
// enough to inline into both fillers: the fold path of the online
// learner runs it per impression.
func (st *Stats) tally(p int32, pos, last, first int, clicked bool) {
	st.examLast[p]++
	if first < 0 || pos <= first {
		st.examFirst[p]++
	}
	if clicked {
		st.clicks[p]++
		st.clickAt[pos]++
		if pos == first {
			st.clickFirst[p]++
		}
		if pos == last {
			st.satNum[p]++
			st.lastAt[pos]++
		}
	}
}

// Add folds one session into the accumulator. The session must be
// well-formed (the same contract Fit enforces on whole logs).
func (st *Stats) Add(s Session) error {
	if err := s.Validate(); err != nil {
		return err
	}
	qid := st.queries.ID(s.Query)
	st.growPos(len(s.Docs))
	last, first := s.LastClick(), s.FirstClick()
	stop := last
	if stop < 0 {
		stop = len(s.Docs) - 1
	}
	for i, d := range s.Docs[:stop+1] {
		st.tally(st.pairID(qid, d), i, last, first, s.Clicks[i])
	}
	st.sessions++
	st.added++
	return nil
}

// logStats is the dense filler: the statistics of a compiled log in one
// pass over its impressions, on one strand — a second one breaks even
// only at some 40,000 sessions and wins at 400,000, where the Compile
// that must come first costs 90 ms (DESIGN.md §6) — in arrays carved
// from the pooled fit scratch, sharing the log's pair table. The result
// is for FitStats to read and dies with putScratch(fs): it has no
// interning maps, so Add, Merge and Prune are not for it.
func logStats(c *CompiledLog) (fs *fitScratch, st Stats) {
	nPair, nSess := c.NumPairs(), c.NumSessions()
	fs, buf := getScratch(5*nPair + 2*c.maxPos)
	sl := slab{buf}
	st = Stats{
		pairs:  c.pairs,
		clicks: sl.take(nPair), examLast: sl.take(nPair), satNum: sl.take(nPair),
		clickFirst: sl.take(nPair), examFirst: sl.take(nPair),
		clickAt: sl.take(c.maxPos), lastAt: sl.take(c.maxPos),
		sessions: float64(nSess), added: uint64(nSess),
	}
	for s := 0; s < nSess; s++ {
		b, last, first := int(c.off[s]), int(c.last[s]), int(c.first[s])
		stop := last
		if stop < 0 {
			stop = int(c.off[s+1]) - b - 1
		}
		click := c.click[b : b+stop+1]
		for pos, p := range c.pair[b : b+stop+1] {
			st.tally(p, pos, last, first, click[pos])
		}
	}
	return fs, st
}

// AddAll folds a whole log, stopping at the first invalid session.
func (st *Stats) AddAll(sessions []Session) error {
	for i := range sessions {
		if err := st.Add(sessions[i]); err != nil {
			return err
		}
	}
	return nil
}

// Decay scales every count by f in [0, 1], exponentially aging out old
// traffic: with per-publish decay f, a session observed k publishes ago
// carries weight f^k. Values outside [0, 1] are ignored.
func (st *Stats) Decay(f float64) {
	if f < 0 || f >= 1 {
		return
	}
	scale := func(xs []float64) {
		for i := range xs {
			xs[i] *= f
		}
	}
	scale(st.clicks)
	scale(st.examLast)
	scale(st.satNum)
	scale(st.clickFirst)
	scale(st.examFirst)
	scale(st.clickAt)
	scale(st.lastAt)
	st.sessions *= f
}

// Merge folds src into st. idmap caches the src-pair-ID → st-pair-ID
// mapping across calls (src pair IDs are stable across Reset); pass nil
// on first use and the returned slice thereafter. Steady-state merges —
// all pairs already seen — allocate nothing.
func (st *Stats) Merge(src *Stats, idmap []int32) []int32 {
	if src == nil {
		return idmap
	}
	for p := len(idmap); p < len(src.pairs); p++ {
		k := src.pairs[p]
		idmap = append(idmap, st.pairID(st.queries.ID(k.q), k.d))
	}
	for p := range src.pairs {
		id := idmap[p]
		st.clicks[id] += src.clicks[p]
		st.examLast[id] += src.examLast[p]
		st.satNum[id] += src.satNum[p]
		st.clickFirst[id] += src.clickFirst[p]
		st.examFirst[id] += src.examFirst[p]
	}
	st.growPos(len(src.clickAt))
	for i := range src.clickAt {
		st.clickAt[i] += src.clickAt[i]
		st.lastAt[i] += src.lastAt[i]
	}
	st.sessions += src.sessions
	st.added += src.added
	return idmap
}

// Prune drops every pair whose impression mass has decayed below
// minMass, compacting the pair table and count arrays in place, and
// returns how many pairs were dropped. Pair IDs are renumbered, so any
// externally cached ID mapping (Merge idmaps) must be discarded after
// a prune that dropped pairs. Long-lived decayed accumulators call
// this periodically — an open-ended query/doc space otherwise grows
// the table with every pair ever seen.
func (st *Stats) Prune(minMass float64) int {
	kept := 0
	for p := range st.pairs {
		if st.examLast[p] < minMass && st.examFirst[p] < minMass {
			delete(st.pairIDs, pairKey{st.queries.ID(st.pairs[p].q), st.pairs[p].d})
			continue
		}
		if kept != p {
			k := st.pairs[p]
			st.pairs[kept] = k
			st.pairIDs[pairKey{st.queries.ID(k.q), k.d}] = int32(kept)
			st.clicks[kept] = st.clicks[p]
			st.examLast[kept] = st.examLast[p]
			st.satNum[kept] = st.satNum[p]
			st.clickFirst[kept] = st.clickFirst[p]
			st.examFirst[kept] = st.examFirst[p]
		}
		kept++
	}
	dropped := len(st.pairs) - kept
	st.pairs = st.pairs[:kept]
	st.clicks = st.clicks[:kept]
	st.examLast = st.examLast[:kept]
	st.satNum = st.satNum[:kept]
	st.clickFirst = st.clickFirst[:kept]
	st.examFirst = st.examFirst[:kept]
	return dropped
}

// Reset zeroes every count but keeps the interned vocabulary and array
// capacity, so a delta accumulator refills without allocating.
func (st *Stats) Reset() {
	clear(st.clicks)
	clear(st.examLast)
	clear(st.satNum)
	clear(st.clickFirst)
	clear(st.examFirst)
	clear(st.clickAt)
	clear(st.lastAt)
	st.sessions = 0
	st.added = 0
}

// NumPairs returns the number of distinct (query, doc) pairs observed.
func (st *Stats) NumPairs() int { return len(st.pairs) }

// MaxPositions returns the longest result list observed.
func (st *Stats) MaxPositions() int { return len(st.clickAt) }

// Weight returns the decayed session mass currently in the accumulator.
func (st *Stats) Weight() float64 { return st.sessions }

// Added returns the number of sessions ever folded in (undecayed).
func (st *Stats) Added() uint64 { return st.added }

// StatsFitter is implemented by the counting-family models, whose
// closed-form estimates need only the sufficient statistics a Stats
// holds — what the online learner fits through, and what FitLog of
// those models ends in. FitStats reuses the model's exported parameter
// storage, so a steady-state refit allocates nothing.
type StatsFitter interface {
	FitStats(st *Stats) error
}

// errEmptyStats guards the FitStats entry points.
var errEmptyStats = errors.New("clickmodel: FitStats on an empty accumulator")

// FitStats implements StatsFitter: SDBN's closed-form estimates, the
// ratios stated on the type.
func (m *SDBN) FitStats(st *Stats) error {
	if st == nil || st.NumPairs() == 0 {
		return errEmptyStats
	}
	m.defaults()
	m.AttrA = reuseMap(m.AttrA, st.NumPairs())
	m.SatS = reuseMap(m.SatS, st.NumPairs())
	for p, k := range st.pairs {
		if st.examLast[p] > 0 {
			m.AttrA[k] = clampProb((st.clicks[p] + m.LaplaceA) / (st.examLast[p] + m.LaplaceB))
		}
		if st.clicks[p] > 0 {
			m.SatS[k] = clampProb((st.satNum[p] + m.LaplaceA) / (st.clicks[p] + m.LaplaceB))
		}
	}
	return nil
}

// FitStats implements StatsFitter: the cascade MLE from accumulated
// first-click-truncated counts.
func (m *Cascade) FitStats(st *Stats) error {
	if st == nil || st.NumPairs() == 0 {
		return errEmptyStats
	}
	m.defaults()
	m.Alpha = reuseMap(m.Alpha, st.NumPairs())
	for p, k := range st.pairs {
		if st.examFirst[p] > 0 {
			m.Alpha[k] = clampProb((st.clickFirst[p] + m.LaplaceA) / (st.examFirst[p] + m.LaplaceB))
		}
	}
	return nil
}

// FitStats implements StatsFitter: DCM's alphas from the last-click-
// truncated counts and its lambdas from the per-position click /
// last-click ratios.
func (m *DCM) FitStats(st *Stats) error {
	if st == nil || st.NumPairs() == 0 {
		return errEmptyStats
	}
	m.defaults()
	m.Alpha = reuseMap(m.Alpha, st.NumPairs())
	for p, k := range st.pairs {
		if st.examLast[p] > 0 {
			m.Alpha[k] = clampProb((st.clicks[p] + m.LaplaceA) / (st.examLast[p] + m.LaplaceB))
		}
	}
	n := st.MaxPositions()
	m.Lambda = reuseFloats(m.Lambda, n)
	for i := 0; i < n; i++ {
		if den := st.clickAt[i] + m.LaplaceB; den > 0 {
			m.Lambda[i] = clampProb(1 - (st.lastAt[i]+m.LaplaceA)/den)
		} else {
			m.Lambda[i] = 0.5
		}
	}
	return nil
}
