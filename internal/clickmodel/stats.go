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
// Reset zeroes the counts while keeping the interned pairs, so a
// steady-state delta shard allocates nothing.
//
// A Stats is not safe for concurrent use; the stream layer gives each
// ingest shard its own and serialises merges.
type Stats struct {
	tab *pairTable // the pairs the per-pair arrays are indexed by

	clicks     []float64 // per pair: clicks (every click is <= the last click)
	examLast   []float64 // per pair: impressions at positions <= last click
	satNum     []float64 // per pair: sessions where the pair was the last click
	clickFirst []float64 // per pair: clicks at positions <= first click
	examFirst  []float64 // per pair: impressions at positions <= first click

	clickAt []float64 // per position: clicks
	lastAt  []float64 // per position: last clicks

	sessions float64 // decayed session mass
}

// NewStats returns an empty accumulator.
func NewStats() *Stats { return &Stats{tab: newPairTable()} }

// add enters a pair the table lacks, growing every per-pair array in
// step so the count slices always cover pair IDs densely.
func (st *Stats) add(r pairRow, doc string) int32 {
	st.clicks = append(st.clicks, 0)
	st.examLast = append(st.examLast, 0)
	st.satNum = append(st.satNum, 0)
	st.clickFirst = append(st.clickFirst, 0)
	st.examFirst = append(st.examFirst, 0)
	return st.tab.add(r, doc)
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
// well-formed (the same contract Compile enforces on whole logs).
func (st *Stats) Add(s Session) error {
	if err := s.Validate(); err != nil {
		return err
	}
	// The strings of s may borrow a feedback body: the table keeps
	// copies of the ones it has not seen.
	r, ok := st.tab.rows[s.Query]
	if !ok {
		r = st.tab.query(strings.Clone(s.Query), 0)
	}
	st.growPos(len(s.Docs))
	last, first := s.LastClick(), s.FirstClick()
	stop := last
	if stop < 0 {
		stop = len(s.Docs) - 1
	}
	for i, d := range s.Docs[:stop+1] {
		p, ok := r.docs[d]
		if !ok {
			p = st.add(r, strings.Clone(d))
		}
		st.tally(p, i, last, first, s.Clicks[i])
	}
	st.sessions++
	return nil
}

// logStats is the dense filler: the statistics of a compiled log in one
// pass over its impressions, on one strand — a second one breaks even
// only at some 40,000 sessions and wins at 400,000, where the Compile
// that must come first costs 90 ms (DESIGN.md §6) — in arrays carved
// from the pooled fit scratch, sharing the log's pair table. The result
// is for FitStats to read and dies with putScratch(fs): its arrays
// cannot grow and its table is the immutable log's, so Add, Merge and
// Prune are not for it.
func logStats(c *CompiledLog) (fs *fitScratch, st Stats) {
	nPair, nSess := c.NumPairs(), c.NumSessions()
	fs, buf := getScratch(5*nPair + 2*c.maxPos)
	sl := slab{buf}
	st = Stats{
		tab:    c.tab,
		clicks: sl.take(nPair), examLast: sl.take(nPair), satNum: sl.take(nPair),
		clickFirst: sl.take(nPair), examFirst: sl.take(nPair),
		clickAt: sl.take(c.maxPos), lastAt: sl.take(c.maxPos),
		sessions: float64(nSess),
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
	for p := len(idmap); p < len(src.tab.pairs); p++ {
		k := src.tab.pairs[p]
		r := st.tab.query(k.q, 0)
		id, ok := r.docs[k.d]
		if !ok {
			id = st.add(r, k.d)
		}
		idmap = append(idmap, id)
	}
	for p := range src.tab.pairs {
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
	return idmap
}

// Prune drops every pair whose impression mass has decayed below
// minMass, and every query it leaves without a pair, compacting the pair
// table and count arrays in place, and returns how many pairs were
// dropped. Pair IDs are renumbered, so any externally cached ID mapping
// (Merge idmaps) must be discarded after a prune that dropped pairs; a
// model fitted before the prune holds a table of its own and answers as
// it did. Long-lived decayed accumulators call this periodically — an
// open-ended query/doc space otherwise grows the table with every pair
// and every query ever seen.
func (st *Stats) Prune(minMass float64) int {
	live := func(p int) bool { return !(st.examLast[p] < minMass && st.examFirst[p] < minMass) }
	dropped := st.tab.retain(live)
	kept := 0
	for p := range st.clicks {
		if !live(p) {
			continue
		}
		if kept != p {
			st.clicks[kept] = st.clicks[p]
			st.examLast[kept] = st.examLast[p]
			st.satNum[kept] = st.satNum[p]
			st.clickFirst[kept] = st.clickFirst[p]
			st.examFirst[kept] = st.examFirst[p]
		}
		kept++
	}
	st.clicks = st.clicks[:kept]
	st.examLast = st.examLast[:kept]
	st.satNum = st.satNum[:kept]
	st.clickFirst = st.clickFirst[:kept]
	st.examFirst = st.examFirst[:kept]
	return dropped
}

// Reset zeroes every count but keeps the interned pairs and array
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
}

// NumPairs returns the number of distinct (query, doc) pairs observed.
func (st *Stats) NumPairs() int { return len(st.tab.pairs) }

// MaxPositions returns the longest result list observed.
func (st *Stats) MaxPositions() int { return len(st.clickAt) }

// Weight returns the decayed session mass currently in the accumulator.
func (st *Stats) Weight() float64 { return st.sessions }

// StatsFitter is implemented by the counting-family models, whose
// closed-form estimates need only the sufficient statistics a Stats
// holds — what the online learner fits through, and what FitLog of
// those models ends in. FitStats builds the model's own pair table, so
// a fitted model shares nothing mutable with the accumulator: folds,
// merges and prunes after the fit leave its answers as they were.
type StatsFitter interface {
	FitStats(st *Stats) error
}

// errEmptyStats guards the FitStats entry points.
var errEmptyStats = errors.New("clickmodel: FitStats on an empty accumulator")

// fitTable builds the pair table a counting model serves from: the pairs
// of st that fit reports evidence for, in st's order, sharing st's
// strings. fit is called once per pair of st, with its ID there; when it
// reports true it has appended the pair's values to the model's arrays,
// so pair i of the table owns value i of each. t, the table the model's
// previous fit left (or nil), is refilled in place: its rows keep their
// maps' storage, so a steady-state refit allocates nothing.
func (st *Stats) fitTable(t *pairTable, fit func(p int) bool) *pairTable {
	if t == nil {
		t = newPairTable()
	}
	for _, r := range t.rows {
		clear(r.docs)
	}
	clear(t.pairs)
	t.pairs = t.pairs[:0]
	var r pairRow
	for p, k := range st.tab.pairs {
		if !fit(p) {
			continue
		}
		if r.docs == nil || k.q != r.q {
			// A large row is sized up front, or it grows a dozen times. A
			// small one grows from empty, so it keeps Go's one-group map
			// form at eight docs or fewer: sized past eight a map is a
			// table, one more pointer between a reader and the doc.
			hint := len(st.tab.row(k.q))
			if hint <= 64 {
				hint = 0
			}
			r = t.query(k.q, hint)
		}
		t.add(r, k.d)
	}
	for q, r := range t.rows {
		if len(r.docs) == 0 {
			delete(t.rows, q)
		}
	}
	return t
}

// FitStats implements StatsFitter: SDBN's closed-form estimates, the
// ratios stated on the type, over the pairs with an examination or a
// click. A pair with examinations and no click keeps the satisfaction
// prior.
func (m *SDBN) FitStats(st *Stats) error {
	if st == nil || st.NumPairs() == 0 {
		return errEmptyStats
	}
	m.defaults()
	m.attr, m.sat = reuseFloats(m.attr, st.NumPairs())[:0], reuseFloats(m.sat, st.NumPairs())[:0]
	m.pairs = st.fitTable(m.pairs, func(p int) bool {
		if !(st.examLast[p] > 0 || st.clicks[p] > 0) {
			return false
		}
		a, s := m.PriorA, m.PriorS
		if st.examLast[p] > 0 {
			a = clampProb((st.clicks[p] + m.LaplaceA) / (st.examLast[p] + m.LaplaceB))
		}
		if st.clicks[p] > 0 {
			s = clampProb((st.satNum[p] + m.LaplaceA) / (st.clicks[p] + m.LaplaceB))
		}
		m.attr, m.sat = append(m.attr, a), append(m.sat, s)
		return true
	})
	return nil
}

// FitStats implements StatsFitter: the cascade MLE from accumulated
// first-click-truncated counts, over the pairs examined at or above a
// first click.
func (m *Cascade) FitStats(st *Stats) error {
	if st == nil || st.NumPairs() == 0 {
		return errEmptyStats
	}
	m.defaults()
	m.alphas = reuseFloats(m.alphas, st.NumPairs())[:0]
	m.pairs = st.fitTable(m.pairs, func(p int) bool {
		if !(st.examFirst[p] > 0) {
			return false
		}
		m.alphas = append(m.alphas, clampProb((st.clickFirst[p]+m.LaplaceA)/(st.examFirst[p]+m.LaplaceB)))
		return true
	})
	return nil
}

// FitStats implements StatsFitter: DCM's alphas from the last-click-
// truncated counts, over the pairs examined at or above a last click,
// and its lambdas from the per-position click / last-click ratios.
func (m *DCM) FitStats(st *Stats) error {
	if st == nil || st.NumPairs() == 0 {
		return errEmptyStats
	}
	m.defaults()
	m.alphas = reuseFloats(m.alphas, st.NumPairs())[:0]
	m.pairs = st.fitTable(m.pairs, func(p int) bool {
		if !(st.examLast[p] > 0) {
			return false
		}
		m.alphas = append(m.alphas, clampProb((st.clicks[p]+m.LaplaceA)/(st.examLast[p]+m.LaplaceB)))
		return true
	})
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
