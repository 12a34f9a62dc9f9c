package engine

import (
	"sync"

	"repro/internal/core"
	"repro/internal/textproc"
)

// scratch is the per-goroutine working storage of the serving read
// path. Each ScoreBatch strand owns one for the duration of the batch
// (no pool contention on the hot loop); single-request ScoreCTR calls
// borrow one from the pool.
//
// Ownership rules — everything in a scratch belongs to the goroutine
// holding it, except memo, which is the engine's and shared:
//
//   - text is reused freely: nothing derived from it survives a
//     request (the compiled micro scorer returns plain floats).
//   - positions is an arena, not a buffer: the macro scorer carves
//     each Response.Positions slice out of it exactly once and never
//     writes that region again, so carved slices stay valid in the
//     caller's hands while the scratch (and the arena's unused tail)
//     is recycled.
//   - cands is the candidate-set working set (line dedup arena plus
//     per-line partial cache); ScoreCandidates resets it at the top of
//     every pass, so nothing derived from it survives a request either.
//   - memo is the engine's snippet memo, every strand's alike and
//     guarded by its own shard locks; Engine.getScratch lends it for one
//     strand and Engine.putScratch takes it back, so a scratch in the
//     pool (and so MicroScorer.ScoreCTR outside an engine) has none.
//     ident is the identity of the version the request in hand resolved
//     to, set by scoreResolved before each micro scoreCTR call.
type scratch struct {
	text      textproc.Scratch
	positions floatArena
	cands     core.CandidateScratch

	memo  *snippetMemo
	ident uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// getScratch borrows a scratch for a strand that scores requests: it
// carries the engine's memo until putScratch.
func (e *Engine) getScratch() *scratch {
	sc := getScratch()
	sc.memo = e.memo
	return sc
}

// putScratch ends a strand: the scratch goes back to the pool without
// the memo.
func (e *Engine) putScratch(sc *scratch) {
	sc.memo = nil
	putScratch(sc)
}

// floatArena hands out write-once []float64 regions from a chunked
// backing slice. take never recycles handed-out memory: when a chunk
// fills, the arena moves to a fresh one and the old chunk stays alive
// exactly as long as the responses that reference it.
type floatArena struct {
	buf []float64
	off int
}

// arenaChunk amortises Positions allocations across roughly this many
// floats per chunk.
const arenaChunk = 1024

func (a *floatArena) take(n int) []float64 {
	if a.off+n > len(a.buf) {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]float64, size)
		a.off = 0
	}
	out := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return out
}
