package clickmodel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/snapshot"
)

// pairTable is the one growable interner of (query, doc) pairs, laid out
// query first: a map from each query to its row — that query's own map
// from doc to pair ID — and pairs, every pair's strings by ID. A session
// resolves its query once and then each doc with one probe of a
// string-keyed map, hashing and comparing the doc alone. A CompiledLog
// holds one, which every EM model fitted on it keeps; so do a Stats,
// every fitted counting model and SUM, each its own.
//
// The table keeps the strings it is given, never copies: a caller whose
// strings borrow a larger buffer (Stats.Add's feedback bodies) enters
// copies. It is not safe for concurrent mutation: a table a model
// scores from changes only when that model is refitted in place, and a
// compiled log's never does.
//
// The table stays two-level rather than a growable textproc.Vocab of
// queries beside per-query doc maps: that layout costs one dependent
// load more per session, 303 ns against this map of rows' 262 ns
// (Cascade, 20,000 queries × 10 docs, 2 vCPUs).
type pairTable struct {
	rows  map[string]pairRow // query -> its docs
	pairs []qd               // pair ID -> (query, doc)
}

// pairRow is one query's docs: the query string the table keeps (the
// one pairs lists) and the map from each doc to its pair ID.
type pairRow struct {
	q    string
	docs map[string]int32
}

func newPairTable() *pairTable { return &pairTable{rows: make(map[string]pairRow)} }

// pairTableOf builds the table of keys, adopting keys as its pair list:
// pair i is keys[i]. A key given twice is snapshot.ErrCorrupt: no table
// holds a pair under two IDs. A run of adjacent keys under one query is
// its row's size hint, so a thawed table has a fitted one's form.
func pairTableOf(keys []qd) (*pairTable, error) {
	t := &pairTable{rows: make(map[string]pairRow), pairs: keys}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].q == keys[i].q {
			j++
		}
		for r := t.query(keys[i].q, j-i); i < j; i++ {
			n := len(r.docs)
			if r.docs[keys[i].d] = int32(i); len(r.docs) == n {
				return nil, fmt.Errorf("%w: pair %d (%q, %q) repeats an earlier one", snapshot.ErrCorrupt, i, keys[i].q, keys[i].d)
			}
		}
	}
	return t, nil
}

// query returns the row of q, entering q with an empty doc map when the
// table lacks it. A row of more than 64 docs (hint) is sized up front,
// or it grows a dozen times. A small one grows from empty, so it keeps
// Go's one-group map form at eight docs or fewer: sized past eight a
// map is a table, one more pointer between a reader and the doc.
func (t *pairTable) query(q string, hint int) pairRow {
	r, ok := t.rows[q]
	if !ok {
		if hint <= 64 {
			hint = 0
		}
		r = pairRow{q, make(map[string]int32, hint)}
		t.rows[q] = r
	}
	return r
}

// add enters doc under row r as the next pair ID; the caller has found
// the pair absent.
func (t *pairTable) add(r pairRow, doc string) int32 {
	id := int32(len(t.pairs))
	r.docs[doc] = id
	t.pairs = append(t.pairs, qd{r.q, doc})
	return id
}

// row returns query q's doc map. It is nil — every doc misses in it —
// when q, or the table itself, is unknown.
func (t *pairTable) row(q string) map[string]int32 {
	if t == nil {
		return nil
	}
	return t.rows[q].docs
}

// pairVal returns doc d's value in vals, by its pair ID in row
// (pairTable.row), or prior where row lacks d: one probe.
func pairVal(row map[string]int32, vals []float64, d string, prior float64) float64 {
	if p, ok := row[d]; ok {
		return vals[p]
	}
	return prior
}

// find returns the ID of pair (q, d), and whether the table holds it.
func (t *pairTable) find(q, d string) (int32, bool) {
	id, ok := t.row(q)[d]
	return id, ok
}

// retain keeps the pairs keep reports and drops the rest, renumbering
// the survivors densely in their old order, and drops the row of every
// query it leaves without a doc. It returns how many pairs it dropped.
// keep is asked once per pair, by old ID.
func (t *pairTable) retain(keep func(p int) bool) int {
	kept := 0
	for p, k := range t.pairs {
		docs := t.rows[k.q].docs
		if !keep(p) {
			delete(docs, k.d)
			if len(docs) == 0 {
				delete(t.rows, k.q)
			}
			continue
		}
		if kept != p {
			docs[k.d] = int32(kept)
			t.pairs[kept] = k
		}
		kept++
	}
	dropped := len(t.pairs) - kept
	clear(t.pairs[kept:])
	t.pairs = t.pairs[:kept]
	return dropped
}

// CompiledLog is a session log compiled for dense estimation: (query,
// doc) pairs are interned to dense IDs in a pairTable, the per-session
// documents and clicks live in flat backing slices (CSR layout), and
// the derived state every model re-derives per EM iteration — last and
// first click, UBM's previous-click column, per-position and per-pair
// impression counts — is precomputed once.
//
// Compile once, then fit any number of models on the same log via
// their FitLog methods. A CompiledLog is immutable after Compile and
// safe for concurrent use.
type CompiledLog struct {
	tab *pairTable // the log's (query, doc) pairs

	off   []int32 // CSR offsets: session s spans impressions off[s]..off[s+1]
	last  []int32 // per session: 0-based last-click index, -1 for none
	first []int32 // per session: 0-based first-click index, -1 for none

	pair  []int32 // per impression: dense (query, doc) pair ID
	click []bool  // per impression: observed click
	prev  []int32 // per impression: UBM gamma column (0 = no prior click)

	// sessions references the source log (no copy), so callers holding
	// only the compiled form can still reach models that need raw
	// sessions (e.g. SUM's clicked-sequence fit).
	sessions []Session

	posCount  []float64 // impressions observed at each position
	pairCount []float64 // impressions observed for each pair

	maxPos int

	// ubmCells caches the per-(position, previous-click) impression
	// counts in triangular layout; only UBM-family fits need them.
	ubmOnce  sync.Once
	ubmCells []float64
}

// Compile validates and interns a session log. The log must be
// non-empty and every session well-formed.
func Compile(sessions []Session) (*CompiledLog, error) {
	if err := validateAll(sessions); err != nil {
		return nil, err
	}
	nImp, maxPos := 0, 0
	for i := range sessions {
		nImp += len(sessions[i].Docs)
		if len(sessions[i].Docs) > maxPos {
			maxPos = len(sessions[i].Docs)
		}
	}
	if nImp > math.MaxInt32 {
		return nil, errors.New("clickmodel: session log exceeds 2^31 impressions; shard it")
	}

	nSess := len(sessions)
	c := &CompiledLog{
		tab:      newPairTable(),
		sessions: sessions,
		off:      make([]int32, nSess+1),
		last:     make([]int32, nSess),
		first:    make([]int32, nSess),
		pair:     make([]int32, nImp),
		click:    make([]bool, nImp),
		prev:     make([]int32, nImp),
		posCount: make([]float64, maxPos),
		maxPos:   maxPos,
	}

	at := int32(0)
	for si := range sessions {
		s := &sessions[si]
		c.off[si] = at
		r := c.tab.query(s.Query, 0)
		c.last[si] = int32(s.LastClick())
		c.first[si] = int32(s.FirstClick())
		prevClick := int32(0)
		for i, d := range s.Docs {
			p, ok := r.docs[d]
			if !ok {
				p = c.tab.add(r, d)
			}
			c.pair[at] = p
			c.click[at] = s.Clicks[i]
			c.prev[at] = prevClick
			if s.Clicks[i] {
				prevClick = int32(i + 1)
			}
			c.posCount[i]++
			at++
		}
	}
	c.off[nSess] = at

	c.pairCount = make([]float64, c.NumPairs())
	for _, p := range c.pair {
		c.pairCount[p]++
	}
	return c, nil
}

// NumSessions returns the number of compiled sessions.
func (c *CompiledLog) NumSessions() int { return len(c.last) }

// Sessions returns the source log the CompiledLog was built from (a
// reference, not a copy) — for callers that hold only the compiled
// form but need the raw sessions, e.g. SUM's clicked-sequence fit.
// Treat it as read-only.
func (c *CompiledLog) Sessions() []Session { return c.sessions }

// NumPairs returns the number of distinct (query, doc) pairs.
func (c *CompiledLog) NumPairs() int { return len(c.tab.pairs) }

// tri is the row offset of position i in triangular (i, j<=i) layout.
func tri(i int) int { return i * (i + 1) / 2 }

// ubmCellCounts lazily computes the per-(position, previous-click
// column) impression counts used as UBM/BBM gamma denominators; they
// are a property of the log, constant across EM iterations.
func (c *CompiledLog) ubmCellCounts() []float64 {
	c.ubmOnce.Do(func() {
		cells := make([]float64, tri(c.maxPos))
		for s := 0; s < c.NumSessions(); s++ {
			b, e := c.off[s], c.off[s+1]
			for i := b; i < e; i++ {
				pos := int(i - b)
				cells[tri(pos)+int(c.prev[i])]++
			}
		}
		c.ubmCells = cells
	})
	return c.ubmCells
}

// reuseFloats returns dst resliced when a previous fit left storage of
// the right capacity, or a fresh slice of length n. Contents are
// unspecified; callers re-initialise.
func reuseFloats(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// filled is reuseFloats with every value set to v: the point an EM fit
// starts a parameter array from (per-pair values at their prior).
func filled(dst []float64, n int, v float64) []float64 {
	dst = reuseFloats(dst, n)
	for i := range dst {
		dst[i] = v
	}
	return dst
}

// errNilLog guards the exported FitLog entry points.
var errNilLog = errors.New("clickmodel: FitLog on a nil compiled log")

// --- parallel E-step scaffolding ---

// minSessionsPerWorker keeps the auto-sized shard fan-out from
// swamping tiny logs with goroutine overhead.
const minSessionsPerWorker = 256

// emWorkers resolves a model's Workers knob against the log size:
// explicit values are honoured (the race tests force >1 on any
// machine), 0 auto-sizes to GOMAXPROCS capped by log size.
func emWorkers(requested, nSessions int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if byLoad := nSessions / minSessionsPerWorker; byLoad < w {
			w = byLoad
		}
	}
	if w < 1 {
		w = 1
	}
	if w > nSessions && nSessions > 0 {
		w = nSessions
	}
	return w
}

// forEachShard splits the sessions [0, n) into `workers` contiguous
// shards and runs fn once per shard, concurrently when workers > 1.
// Each worker accumulates into its own slice set (disjoint regions of
// the fit scratch slab); the caller merges them in worker order, so a
// fit is deterministic for a fixed worker count.
func forEachShard(workers, n int, fn func(worker, lo, hi int)) {
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// mergeShards folds the per-worker accumulator regions of a strided
// slab into worker 0's region, in worker order (deterministic for a
// fixed worker count), and returns that base region.
func mergeShards(all []float64, stride, workers int) []float64 {
	base := all[:stride]
	for w := 1; w < workers; w++ {
		shard := all[w*stride : (w+1)*stride]
		for i, v := range shard {
			base[i] += v
		}
	}
	return base
}

// fitScratch is the pooled scratch slab for dense fits. Refitting
// models on live traffic is the hot loop this package serves, so the
// (often hundreds of KB) accumulator arrays are recycled rather than
// reallocated per fit.
type fitScratch struct{ buf []float64 }

var scratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// getScratch returns a zeroed float64 slab of length n and the pool
// token to hand back via putScratch when the fit completes.
func getScratch(n int) (*fitScratch, []float64) {
	fs := scratchPool.Get().(*fitScratch)
	if cap(fs.buf) < n {
		fs.buf = make([]float64, n)
	}
	buf := fs.buf[:n]
	clear(buf)
	return fs, buf
}

func putScratch(fs *fitScratch) { scratchPool.Put(fs) }

// slab carves named sub-slices out of one backing allocation.
type slab struct{ buf []float64 }

func (s *slab) take(n int) []float64 {
	out := s.buf[:n:n]
	s.buf = s.buf[n:]
	return out
}
