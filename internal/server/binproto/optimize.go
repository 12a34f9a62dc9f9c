package binproto

// The optimize cycle: decode one query × N candidate snippets from an
// optimize frame, score them through the engine's amortised
// candidate-set pass, and encode the ranked result. Like the score
// cycle, everything runs out of connection-owned arenas — a warm
// optimize cycle performs zero heap allocations.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// optState is the optimize half of the connection working set,
// embedded in connState: the candidate-line arena (slot 0 is the base
// snippet), the score buffer and the ranking heap, all reused frame
// over frame.
type optState struct {
	lines  []string
	spans  []span // span.req indexes cands
	cands  [][]string
	scores []core.CandidateScore
	topk   engine.TopK
}

// decodeOptimize rebuilds one candidate-set call from an optimize
// payload. st.opt.cands[0] is the base snippet, the rest the
// candidates, all zero-copy views into the frame buffer.
//
//mb:noalloc
func (st *connState) decodeOptimize(payload []byte) (id, model string, maxN, topK int, err error) {
	o := &st.opt
	r := reader{b: payload}
	id = r.str()
	model = r.str()
	maxN = int(r.u8())
	topK = int(r.u16())

	o.lines = o.lines[:0]
	o.spans = o.spans[:0]
	// Base snippet, then the candidate count, then each candidate —
	// all into one arena; slices are taken only once it stops moving.
	nl := int(r.u16())
	for j := 0; j < nl && r.err == nil; j++ {
		o.lines = append(o.lines, r.str())
	}
	o.spans = append(o.spans, span{start: 0, n: nl})
	nc := int(r.u32())
	if r.err == nil && nc > MaxBatch {
		return id, model, maxN, topK, fmt.Errorf("binproto: candidate set of %d exceeds the %d limit; split it", nc, MaxBatch) //mb:allocok cold reject path
	}
	for i := 0; i < nc && r.err == nil; i++ {
		nl := int(r.u16())
		start := len(o.lines)
		for j := 0; j < nl && r.err == nil; j++ {
			o.lines = append(o.lines, r.str())
		}
		o.spans = append(o.spans, span{req: i + 1, start: start, n: nl})
	}
	if err = r.done(); err != nil {
		return id, model, maxN, topK, err
	}

	if cap(o.cands) < len(o.spans) {
		o.cands = make([][]string, len(o.spans)) //mb:allocok capacity miss: first frame this size, then reused
	}
	o.cands = o.cands[:len(o.spans)]
	for k := range o.spans {
		sp := &o.spans[k]
		o.cands[k] = o.lines[sp.start : sp.start+sp.n : sp.start+sp.n]
	}
	return id, model, maxN, topK, nil
}

// processOptimize runs one optimize cycle with no I/O: decode, one
// candidate-set scoring pass, rank, encode the optimize-result frame
// (header included) into st.out. A scoring failure (unknown model,
// macro model) travels inside the result frame's error field — the
// connection stays usable, exactly like Response.Error on the score
// path.
//
//mb:noalloc
func (s *Server) processOptimize(ctx context.Context, st *connState, payload []byte) error {
	id, model, maxN, topK, err := st.decodeOptimize(payload)
	if err != nil {
		return err
	}
	o := &st.opt
	st.frameModel = model
	st.frameItems = len(o.cands) - 1
	s.requests.Add(uint64(len(o.cands) - 1))

	var zeroHdr [HeaderSize]byte
	st.out = append(st.out[:0], zeroHdr[:]...)

	scores, info, serr := s.eng.ScoreCandidates(ctx, model, o.cands, maxN, o.scores)
	o.scores = scores
	if st.out, err = appendStr16(st.out, id); err != nil {
		return err
	}
	if serr != nil {
		// Semantic failure: empty result carrying the error message.
		if st.out, err = appendStr16(st.out, model); err != nil {
			return err
		}
		st.out = appendU32(st.out, 0)                                    // version
		st.out = appendF64(st.out, 0)                                    // base ctr
		st.out = appendF64(st.out, 0)                                    // base score
		st.out = appendU32(st.out, 0)                                    // best
		st.out = appendU32(st.out, 0)                                    // nranked
		if st.out, err = appendStr16(st.out, serr.Error()); err != nil { //mb:allocok cold error path
			return err
		}
		putHeaderTag(st.out, FrameOptimizeResult, st.tag, len(st.out)-HeaderSize)
		return nil
	}

	if st.out, err = appendStr16(st.out, info.Name); err != nil {
		return err
	}
	st.out = appendU32(st.out, uint32(info.Version))
	st.out = appendF64(st.out, scores[0].CTR)
	st.out = appendF64(st.out, scores[0].Score)

	// Best is 0 (keep the base) or the winning candidate's index + 1.
	idx, best := o.topk.Rank(scores, topK)
	st.out = appendU32(st.out, uint32(best+1))
	st.out = appendU32(st.out, uint32(len(idx)))
	for _, i := range idx {
		st.out = appendU32(st.out, uint32(i))
		st.out = appendF64(st.out, scores[int(i)+1].CTR)
		st.out = appendF64(st.out, scores[int(i)+1].Score)
	}
	if st.out, err = appendStr16(st.out, ""); err != nil {
		return err
	}
	putHeaderTag(st.out, FrameOptimizeResult, st.tag, len(st.out)-HeaderSize)
	return nil
}
