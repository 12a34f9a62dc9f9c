package server

// POST /v1/optimize — one query × N candidate snippets through one
// amortised candidate-set scoring pass. The caller either supplies the
// candidate variants explicitly, or supplies a phrase inventory and
// lets the server enumerate the bounded single-edit space around the
// base creative (the optimize package's Generate). Either way the base
// and every candidate are scored in a single engine.ScoreCandidates
// call — the whole set resolves to one pinned model version, shares
// the line-dedup arena, and pays per distinct line, not per candidate —
// and ranked by engine.TopK.Rank, the rule the MBSP optimize frame
// shares.

import (
	"errors"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optimize"
	"repro/internal/snippet"
)

// optimizeRequest is the POST /v1/optimize wire shape. Exactly one of
// Candidates / Inventory drives the candidate set: explicit candidates
// are scored as given; an inventory makes the server generate the
// bounded edit space around Lines.
type optimizeRequest struct {
	ID    string `json:"id,omitempty"`
	Model string `json:"model,omitempty"`
	// Query is an opaque context tag echoed back (the "one query" of
	// the workload); the micro model itself is query-conditioned
	// upstream, at training time.
	Query string `json:"query,omitempty"`
	// Lines is the base creative the candidates compete against.
	Lines []string `json:"lines"`
	// Candidates are explicit variants to score (wins over Inventory).
	Candidates [][]string `json:"candidates,omitempty"`
	// Inventory is a phrase pool for server-side candidate generation.
	Inventory []string `json:"inventory,omitempty"`
	MaxN      int      `json:"max_n,omitempty"`
	// TopK bounds the ranked candidates in the response (<= 0 keeps
	// every candidate).
	TopK int `json:"top_k,omitempty"`
}

// optimizeCandidate is one scored variant in the response. Index is the
// candidate's position in the request's (or generated) candidate list;
// the base creative reports index -1. Lines and Edit are populated for
// server-generated candidates, where the caller cannot recover the
// variant text from the index alone.
type optimizeCandidate struct {
	Index int            `json:"index"`
	Lines []string       `json:"lines,omitempty"`
	Edit  *optimize.Edit `json:"edit,omitempty"`
	CTR   float64        `json:"ctr"`
	Score float64        `json:"score"`
}

// optimizeResponse is the POST /v1/optimize reply: the base's own
// score, the argmax snippet (the base itself when nothing beats it),
// and the top-k candidates ranked by predicted CTR.
type optimizeResponse struct {
	ID           string              `json:"id,omitempty"`
	Model        string              `json:"model"`
	ModelVersion int                 `json:"model_version,omitempty"`
	Query        string              `json:"query,omitempty"`
	Base         optimizeCandidate   `json:"base"`
	Best         optimizeCandidate   `json:"best"`
	Candidates   []optimizeCandidate `json:"candidates"`
	// Generated counts server-enumerated candidates (0 when the caller
	// supplied them explicitly).
	Generated int    `json:"generated,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.met.optimizes.Add(1)
	ti := traceFrom(r.Context())
	t0 := time.Now()
	var req optimizeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	ti.stage("decode", t0)
	if len(req.Lines) == 0 {
		s.writeError(w, http.StatusBadRequest, "optimize needs the base snippet lines")
		return
	}

	cands := req.Candidates
	var gen []optimize.Candidate
	if len(cands) == 0 {
		if len(req.Inventory) == 0 {
			s.writeError(w, http.StatusBadRequest,
				"optimize needs candidates or an inventory to generate them from")
			return
		}
		base, err := snippet.New(req.ID, req.Lines...)
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, "optimize: %v", err)
			return
		}
		gen = optimize.Generate(base, req.Inventory)
		cands = make([][]string, len(gen))
		for i := range gen {
			cands[i] = gen[i].Creative.Lines
		}
	}
	if len(cands) > maxBatchItems {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			"candidate set of %d exceeds the %d limit; split it", len(cands), maxBatchItems)
		return
	}
	s.met.optimizeCandidates.Add(uint64(len(cands)))

	// One pass scores the base (slot 0) and every candidate.
	all := make([][]string, 0, len(cands)+1)
	all = append(all, req.Lines)
	all = append(all, cands...)
	t1 := time.Now()
	scores, info, err := s.eng.ScoreCandidates(r.Context(), req.Model, all, req.MaxN, nil)
	ti.stage("score", t1)
	ti.shape(req.Model, len(cands))
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, engine.ErrNoModel) {
			status = http.StatusNotFound
		}
		s.writeJSON(w, status, optimizeResponse{ID: req.ID, Model: req.Model, Query: req.Query, Error: err.Error()})
		return
	}

	resp := optimizeResponse{
		ID:           req.ID,
		Model:        info.Name,
		ModelVersion: info.Version,
		Query:        req.Query,
		Generated:    len(gen),
	}
	resp.Base = optimizeCandidate{Index: -1, CTR: scores[0].CTR, Score: scores[0].Score}

	var tk engine.TopK
	idx, best := tk.Rank(scores, req.TopK)
	resp.Candidates = make([]optimizeCandidate, len(idx))
	for rank, i := range idx {
		resp.Candidates[rank] = newOptimizeCandidate(int(i), scores[int(i)+1], cands, gen)
	}

	// Best is the base itself when no candidate beats it.
	resp.Best = resp.Base
	resp.Best.Lines = req.Lines
	if best >= 0 {
		resp.Best = newOptimizeCandidate(best, scores[best+1], cands, gen)
		resp.Best.Lines = cands[best]
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// newOptimizeCandidate shapes one response entry; generated candidates
// carry their variant lines and the edit that produced them.
func newOptimizeCandidate(i int, sc core.CandidateScore, cands [][]string, gen []optimize.Candidate) optimizeCandidate {
	c := optimizeCandidate{Index: i, CTR: sc.CTR, Score: sc.Score}
	if i < len(gen) {
		c.Lines = cands[i]
		c.Edit = &gen[i].Edit
	}
	return c
}
