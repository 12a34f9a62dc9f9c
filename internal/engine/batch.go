package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ScoreCTR scores one request through the scorer its Model field
// references (empty = the engine default; "name@version" pins a
// version). The returned Response carries the request ID, resolved
// model name and serving version even on error.
func (e *Engine) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		resp := Response{ID: req.ID, Model: e.requestModel(req.Model)}
		resp.setErr(err)
		return resp, err
	}
	name, _, mv, err := e.resolvePinnedTimed(req.Model)
	if err != nil {
		resp := Response{ID: req.ID, Model: name}
		resp.setErr(err)
		return resp, err
	}
	if mv.art != nil {
		defer mv.art.Release()
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	var resp Response
	if e.obs == nil {
		err = e.scoreResolved(ctx, &req, name, &mv, sc, &resp)
		return resp, err
	}
	// Single requests are timed unconditionally: the HTTP score path
	// already pays JSON costs orders of magnitude above two time.Now
	// calls. Batch strands sample instead (see scoreOne), and tally
	// their CTR samples where this records its one.
	t0 := time.Now()
	err = e.scoreResolved(ctx, &req, name, &mv, sc, &resp)
	e.obs.Score.RecordSince(t0)
	if err == nil && mv.ctr != nil {
		mv.ctr.Record(obs.CTRUnits(resp.CTR))
	}
	return resp, err
}

// scoreResolved is the post-resolution half of ScoreCTR: it scores
// *req with the resolved version into *out and overwrites every field
// of *out. The built-in scorers run with the caller's scratch
// (per-strand in batches, pooled for single requests) and take no
// context: they run in about a microsecond, so the engine checks for
// cancellation around them (once per request in ScoreCTR, once per
// claimed chunk in a strand) instead of paying cancelCtx.Err's mutex
// inside every call. Third-party Scorer implementations take their
// public path, context included. The switch names the built-in types
// rather than calling through an interface because a pointer handed
// to an interface method escapes: ScoreCTR's request and response
// would cost two heap allocations per call. It records no CTR sample;
// ScoreCTR and scoreOne do.
//
//mb:noalloc
func (e *Engine) scoreResolved(ctx context.Context, req *Request, name string, mv *modelVersion, sc *scratch, out *Response) error {
	var err error
	switch s := mv.scorer.(type) {
	case *MicroScorer:
		sc.ident = mv.ident
		err = s.scoreCTR(req, sc, out)
	case *ClickModelScorer:
		err = s.scoreCTR(req, sc, out)
	default:
		*out, err = mv.scorer.ScoreCTR(ctx, *req)
	}
	out.ID = req.ID
	out.Model = name // canonical table key, whatever the scorer stamped
	out.ModelVersion = mv.info.Version
	out.setErr(err)
	return err
}

// minStrandBatch is the number of requests a batch must hold per
// scoring strand before a helper goroutine is woken for it: a batch of
// n requests runs on at most n/minStrandBatch strands, the caller's
// included. It is twice the break-even of requests that run the kernel,
// read off BenchmarkEngineScoreBatch's size sub-benches before the
// snippet memo existed (BENCH_engine.json at 36fe5a5; 2 vCPUs, ~1.3µs
// requests): with one helper forced, two strands first beat one on the
// wall clock between 128- and 192-request batches (172→180µs,
// 259→226µs) — a helper's share of 64 to 96 requests — and cost 35–40%
// more CPU per request there. A helper that is woken therefore takes
// over at least twice what waking it costs, and the 64-request frames
// of the serving protocols are scored where they arrive.
//
// It is too low for a batch the memo answers: at ~180ns a request the
// same sub-benches read 231 against 189 ns/req for two strands against
// one at 256 requests, and two only pull level near 4,096. A batch does
// not know its hit share before it is scored, so the constant stays
// where a batch of misses needs it; pricing it by what the first chunk
// observed is an open follow-up (CHANGES.md, PR 24).
const minStrandBatch = 128

// strandChunk is how many requests a strand claims per bump of the
// batch cursor: large enough that the shared cursor and the
// cancellation check cost nothing per request, small enough that the
// last strand to finish is at most one chunk behind the others.
const strandChunk = 16

// batchState is one scoring strand's memoised model resolutions.
// Batches overwhelmingly score one or two models — the mixed frames of
// a serving protocol alternate a click model and the micro model — so
// each strand keeps its last two successful resolutions: a repeated
// reference skips the ref parse, the table lookup and the timing,
// keeping the hot dispatch loop at a string compare or two per request.
// The cache lives for one batch only — a hot-swap lands no later than
// the next ScoreBatch call — and within it each reference answers from
// one version while it stays cached. Mapped versions are pinned once
// per cache fill, not per request, so the artifact refcount is off the
// per-request path; a pin is released when its slot is evicted or the
// strand drains (release()).
//
// The version's predicted-CTR histogram is off that path too: each slot
// tallies its version's samples in the strand's own memory and hands
// them over in release, so a request writes no cache line that another
// strand writes. A scrape therefore lags by at most the batch each
// strand has in hand, and a batch's samples are all in the histogram by
// the time ScoreBatchInto returns.
type batchState struct {
	resolution            // the slot the first resolution fills
	other      resolution // the second slot
	lastOther  bool       // the last request used other: a miss evicts the slot it did not use
	n          uint32     // requests scored this batch, the sampling clock (observed engines)
}

// release hands over the strand's CTR samples and drops its artifact
// pins.
//
//mb:noalloc
func (bs *batchState) release() {
	bs.resolution.release()
	bs.other.release()
}

// scoreOne scores one batch element into *out through the strand's
// memoised resolutions.
//
//mb:noalloc
func (e *Engine) scoreOne(ctx context.Context, req *Request, out *Response, bs *batchState, sc *scratch) {
	r := &bs.resolution
	switch {
	case r.mv.scorer != nil && req.Model == r.ref:
		bs.lastOther = false
	case bs.other.mv.scorer != nil && req.Model == bs.other.ref:
		r, bs.lastOther = &bs.other, true
	default:
		name, _, mv, err := e.resolvePinnedTimed(req.Model)
		if err != nil {
			*out = Response{ID: req.ID, Model: name}
			out.setErr(err)
			return
		}
		// Fill the first slot first, then evict the least recently used.
		if r.mv.scorer != nil && !bs.lastOther {
			r = &bs.other
		}
		r.release() // after the new pin: never drains a shared artifact
		r.ref, r.name, r.mv = req.Model, name, mv
		bs.lastOther = r == &bs.other
	}
	// Per-request timing is sampled 1-in-scoreSampleEvery per strand:
	// the compiled kernel scores in ~1µs, so unconditional timing would
	// be a measurable tax on exactly the path the histogram exists to
	// protect. The batch histogram (ScoreBatchInto) stays exact.
	var t0 time.Time
	if e.obs != nil {
		if bs.n++; bs.n&(scoreSampleEvery-1) == 0 {
			t0 = time.Now()
		}
	}
	err := e.scoreResolved(ctx, req, r.name, &r.mv, sc, out)
	if !t0.IsZero() {
		e.obs.Score.RecordSince(t0)
	}
	if err == nil && r.mv.ctr != nil {
		r.ctr.Record(obs.CTRUnits(out.CTR))
	}
}

// ScoreBatch scores every request and returns responses aligned with
// the input slice. The calling goroutine always scores: it runs the
// first scoring strand itself, and helper strands join it only when
// the batch holds at least minStrandBatch requests per strand and the
// engine-wide cap (WithWorkers) has room. A request that fails records
// its error in Response.Err without affecting its neighbours. When ctx
// is cancelled mid-batch, requests not yet claimed by a strand are
// returned with Err set to ctx.Err().
//
// Model references are resolved against the table as the batch runs
// (strands memoise repeated references), so a concurrent hot-swap may
// serve part of a batch from the old version and part from the new —
// each response's ModelVersion records which.
func (e *Engine) ScoreBatch(ctx context.Context, reqs []Request) []Response {
	return e.ScoreBatchInto(ctx, reqs, nil)
}

// ScoreBatchInto is ScoreBatch writing into a caller-provided response
// slice (reused when it has the capacity) — the allocation-free path of
// the binary protocol, whose per-connection loop recycles one response
// buffer across frames. Every element of the returned slice is
// overwritten; stale state in a recycled buffer is never observed.
func (e *Engine) ScoreBatchInto(ctx context.Context, reqs []Request, out []Response) []Response {
	if e.obs == nil {
		return e.scoreBatchInto(ctx, reqs, out)
	}
	// The split keeps timing off the uninstrumented path entirely and,
	// on the instrumented one, costs two time.Now calls per batch — no
	// deferred closure, which would put an allocation back on the
	// binary protocol's zero-alloc frame cycle.
	t0 := time.Now()
	out = e.scoreBatchInto(ctx, reqs, out)
	e.obs.Batch.RecordSince(t0)
	return out
}

// scoreBatchInto is the uninstrumented body of ScoreBatchInto.
func (e *Engine) scoreBatchInto(ctx context.Context, reqs []Request, out []Response) []Response {
	if ctx == nil {
		ctx = context.Background()
	}
	if cap(out) >= len(reqs) {
		out = out[:len(reqs)]
	} else {
		out = make([]Response, len(reqs))
	}
	if len(reqs) == 0 {
		return out
	}
	// Reserve this goroutine's strand slot plus as many helper slots as
	// the batch is worth. The counter may overshoot the cap for a moment
	// before the excess is handed back, which only ever makes a
	// concurrent batch claim fewer helpers, never more.
	helpers := max(len(reqs)/minStrandBatch-1, 0)
	if over := min(int(e.strands.Add(int32(1+helpers)))-e.workers, helpers); over > 0 {
		e.strands.Add(int32(-over))
		helpers -= over
	}
	if helpers == 0 {
		var cursor atomic.Int64
		e.strand(ctx, reqs, out, &cursor)
	} else {
		e.scoreBatchHelped(ctx, reqs, out, helpers)
	}
	return out
}

// scoreBatchHelped runs the caller's strand beside helper goroutines.
// It is its own frame so that the cursor the helpers share is
// heap-allocated only when there are helpers.
func (e *Engine) scoreBatchHelped(ctx context.Context, reqs []Request, out []Response, helpers int) {
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(helpers)
	for ; helpers > 0; helpers-- {
		go func() {
			defer wg.Done()
			e.strand(ctx, reqs, out, &cursor)
		}()
	}
	e.strand(ctx, reqs, out, &cursor)
	wg.Wait()
}

// strand is the one batch-scoring loop: claim the next strandChunk
// requests from the batch's cursor, score them, repeat until the
// cursor passes the end. The goroutine that called ScoreBatch runs it
// first, so no request waits for a wake-up; helpers run the same loop
// and one that starts late finds nothing left to claim. Cancellation
// is checked once per claimed chunk, and a cancelled batch is drained
// by this same loop: every chunk claimed after the cancellation is
// filled with the context's error, so each slot is written exactly
// once. The strand owns one scratch and one memoised resolution for
// its whole run and gives back its slot of the engine's cap on return.
//
//mb:noalloc
func (e *Engine) strand(ctx context.Context, reqs []Request, out []Response, cursor *atomic.Int64) {
	defer e.strands.Add(-1)
	sc := e.getScratch()
	defer e.putScratch(sc)
	var bs batchState
	defer bs.release()
	for {
		end := int(cursor.Add(strandChunk))
		start := end - strandChunk
		if start >= len(reqs) {
			return
		}
		if end > len(reqs) {
			end = len(reqs)
		}
		if err := ctx.Err(); err != nil {
			for i := start; i < end; i++ {
				out[i] = Response{ID: reqs[i].ID, Model: e.requestModel(reqs[i].Model)}
				out[i].setErr(err)
			}
			continue
		}
		for i := start; i < end; i++ {
			e.scoreOne(ctx, &reqs[i], &out[i], &bs, sc)
		}
	}
}
