package engine

// Candidate-set scoring entry point: one query × N candidate snippets
// through one resolved model version. This is the serving half of
// /v1/optimize — resolution, artifact pinning and scratch reuse are
// exactly the single-request path's, but the scoring call is the
// amortised core.ScoreCandidates pass instead of N ScoreSnippet walks,
// so the whole set is served off one pinned version even while a hot
// swap replaces the model mid-flight.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// ScoreCandidates scores every candidate snippet through the micro
// model ref resolves to, writing into out (reused when it has the
// capacity) and returning it with the serving version's metadata.
// maxN <= 0 takes the request default (2). Only micro scorers can
// score snippet candidates; resolving to a macro model is an
// ErrNoEvidence-wrapped error, unknown references wrap ErrNoModel.
func (e *Engine) ScoreCandidates(ctx context.Context, ref string, cands [][]string, maxN int, out []core.CandidateScore) ([]core.CandidateScore, ModelInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return out, ModelInfo{}, err
	}
	if e.obs != nil {
		// One sample per candidate set (a few hundred snippets per
		// call): exact timing, negligible against the amortised pass.
		defer e.obs.Candidates.RecordSince(time.Now())
	}
	name, _, mv, err := e.resolvePinnedTimed(ref)
	if err != nil {
		return out, ModelInfo{}, err
	}
	if mv.art != nil {
		defer mv.art.Release()
	}
	ms, ok := mv.scorer.(*MicroScorer)
	if !ok {
		return out, mv.info, fmt.Errorf("%w: model %q cannot score snippet candidates (micro model required)", ErrNoEvidence, name)
	}
	if maxN <= 0 {
		maxN = Request{}.maxN()
	}
	sc := getScratch()
	defer putScratch(sc)
	return ms.c.ScoreCandidates(cands, maxN, &sc.cands, out), mv.info, nil
}
