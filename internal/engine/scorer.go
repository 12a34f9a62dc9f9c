package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/featstats"
	"repro/internal/ml"
)

// Request describes one CTR-prediction unit of work. The two browsing
// levels of the paper take different evidence, so a request carries
// either kind and the selected scorer consumes the one it understands:
//
//   - macro (click-model) scorers read Session — a ranked impression —
//     and predict a click probability per position;
//   - micro scorers read Lines — one snippet's text — and predict the
//     snippet's standalone CTR from per-term relevance × attention.
//
// Requests and responses carry JSON tags because they are also the
// wire format of cmd/microserve's /v1/score endpoints.
type Request struct {
	// ID is an opaque correlation tag echoed into the Response.
	ID string `json:"id,omitempty"`
	// Model selects the scorer by name; empty uses the engine default
	// and "name@version" pins an installed version.
	Model string `json:"model,omitempty"`
	// Session is the macro evidence: one query impression.
	Session *clickmodel.Session `json:"session,omitempty"`
	// Lines is the micro evidence: the snippet's lines.
	Lines []string `json:"lines,omitempty"`
	// MaxN is the n-gram order for term extraction (default 2).
	MaxN int `json:"max_n,omitempty"`
}

// maxN returns the request's n-gram order with the default applied.
func (r Request) maxN() int {
	if r.MaxN <= 0 {
		return 2
	}
	return r.MaxN
}

// Response is the outcome of scoring one Request.
type Response struct {
	// ID echoes the request's correlation tag.
	ID string `json:"id,omitempty"`
	// Model is the resolved scorer name.
	Model string `json:"model,omitempty"`
	// ModelVersion is the installed version that served the request
	// (0 when resolution failed) — under hot-swapping, the way to tell
	// which parameters produced an estimate.
	ModelVersion int `json:"model_version,omitempty"`
	// CTR is the headline estimate: the predicted click-through rate of
	// the snippet (micro) or the mean per-position click probability of
	// the session (macro).
	CTR float64 `json:"ctr"`
	// Positions holds the per-position click probabilities for macro
	// requests; nil for micro requests.
	Positions []float64 `json:"positions,omitempty"`
	// Score is the expected log-probability score of Eq. 3 for micro
	// requests (differences of Scores reproduce the pairwise Eq. 5);
	// zero for macro requests.
	Score float64 `json:"score,omitempty"`
	// Err records the per-request failure in batch results; single-call
	// APIs also return it as an error value. Interface values do not
	// survive encoding/json (they marshal as {}), so Err is excluded
	// from the wire format in favour of Error.
	Err error `json:"-"`
	// Error is Err's message, the wire-visible failure of this request;
	// empty on success.
	Error string `json:"error,omitempty"`
}

// setErr records the outcome on both the in-process (Err) and wire
// (Error) fields: a failure on both, success by clearing both.
func (r *Response) setErr(err error) {
	r.Err, r.Error = err, ""
	if err != nil {
		r.Error = err.Error()
	}
}

// Scorer is the unified scoring surface: anything that can turn a
// Request into a CTR estimate. Implementations must be safe for
// concurrent use — the engine calls them from every goroutine that
// hands it a batch, plus its helper strands.
type Scorer interface {
	ScoreCTR(ctx context.Context, req Request) (Response, error)
}

// ErrNoEvidence is wrapped by scorer errors when a request lacks the
// evidence kind (session vs lines) the scorer consumes.
var ErrNoEvidence = errors.New("engine: request lacks the evidence this scorer consumes")

// ErrNoModel is wrapped by resolution errors — unknown names, malformed
// or missing version references, registry models that were never
// fitted. The HTTP layer maps it to 404 while evidence errors stay 422.
var ErrNoModel = errors.New("engine: no such model")

// ClickModelScorer adapts a fitted macro click model (internal/clickmodel)
// to the Scorer interface. The wrapped model's ClickProbsInto must be
// read-only after its fit, which holds for every model in this
// repository.
type ClickModelScorer struct {
	M clickmodel.Model
}

// NewClickModelScorer wraps a (typically fitted) click model.
func NewClickModelScorer(m clickmodel.Model) *ClickModelScorer {
	return &ClickModelScorer{M: m}
}

// ScoreCTR implements Scorer: per-position marginal click probabilities
// plus their mean as the headline CTR. It borrows a pooled scratch so
// the Positions slice is carved from an arena rather than allocated
// per request; the engine's batch path passes each strand's own
// scratch instead.
func (s *ClickModelScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	var resp Response
	if err := s.scoreCTR(&req, sc, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// scoreCTR is the engine's way in: it writes the scorer's fields of
// *out — Model, CTR, Positions and Score, the last three zero on
// failure — and leaves the rest to the caller. Every built-in model's
// ClickProbsInto keeps the scoring recursion's internal state on the
// stack and writes the marginals straight into the arena-carved
// region, so the steady-state macro path allocates nothing.
func (s *ClickModelScorer) scoreCTR(req *Request, sc *scratch, out *Response) error {
	out.Model, out.CTR, out.Positions, out.Score = s.M.Name(), 0, nil, 0
	if req.Session == nil {
		return fmt.Errorf("%w: click model %q needs a session", ErrNoEvidence, s.M.Name())
	}
	if err := req.Session.Validate(); err != nil {
		return err
	}
	probs := s.M.ClickProbsInto(*req.Session, sc.positions.take(len(req.Session.Docs)))
	var mean float64
	for _, p := range probs {
		mean += p
	}
	if len(probs) > 0 {
		mean /= float64(len(probs))
	}
	out.CTR, out.Positions = mean, probs
	return nil
}

// MicroScorer adapts the paper's micro-browsing model (internal/core)
// to the Scorer interface. It always holds the compiled form (interned
// relevance vocab, precomputed log-relevances, dense attention table),
// so every route to an installed version — UseMicro, Install, a
// snapshot load, an online publish — serves through the same
// allocation-free pass. NewMicroScorer compiles a fitted model, which
// must not be mutated afterwards (the compiled form snapshots it);
// NewCompiledMicroScorer wraps tables that already exist, such as the
// zero-copy views of a mapped v2 artifact.
type MicroScorer struct {
	c *core.CompiledModel
}

// NewMicroScorer compiles a micro-browsing model (relevance table plus
// attention layer) and wraps the result.
func NewMicroScorer(m *core.Model) *MicroScorer {
	return &MicroScorer{c: m.Compile()}
}

// NewCompiledMicroScorer wraps an already-compiled model. When its
// tables view a file mapping, the engine's version table pins the
// mapping for as long as the scorer is installed.
func NewCompiledMicroScorer(c *core.CompiledModel) *MicroScorer {
	return &MicroScorer{c: c}
}

// ScoreCTR implements Scorer. CTR is the exact expectation of Eq. 3
// under independent micro-examination,
//
//	E[Π r_i^{v_i}] = Π (a_i·r_i + 1 − a_i),  a_i = P(term i examined),
//
// and Score is the expected log-probability Σ a_i·log r_i whose
// pairwise differences reproduce Eq. 5. Both are computed in a single
// fused pass that resolves n-gram byte windows against the interned
// vocab without materialising a term.
func (s *MicroScorer) ScoreCTR(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	var resp Response
	if err := s.scoreCTR(&req, sc, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// scoreCTR writes the scorer's fields of *out as
// ClickModelScorer.scoreCTR does. Inside an engine the scratch carries
// the engine's snippet memo and the version's identity, and the kernel
// runs only for text this version has not scored before; the pooled
// scratch of the public ScoreCTR carries neither.
func (s *MicroScorer) scoreCTR(req *Request, sc *scratch, out *Response) error {
	out.Model, out.CTR, out.Positions, out.Score = NameMicro, 0, nil, 0
	if len(req.Lines) == 0 {
		return fmt.Errorf("%w: micro scorer needs snippet lines", ErrNoEvidence)
	}
	out.CTR, out.Score = sc.scoreSnippet(s.c, req.Lines, req.maxN())
	return nil
}

// MeanCTR averages the headline CTR over a batch's responses,
// returning the first per-request error encountered. An empty batch
// has mean 0.
func MeanCTR(resps []Response) (float64, error) {
	if len(resps) == 0 {
		return 0, nil
	}
	var sum float64
	for _, r := range resps {
		if r.Err != nil {
			return 0, r.Err
		}
		sum += r.CTR
	}
	return sum / float64(len(resps)), nil
}

// MicroFromStats builds a servable micro-browsing model from a feature
// statistics database: every position-free term feature becomes a
// relevance entry via the sigmoid of its evidence-shrunk log odds —
// the "in production these come from the feature statistics database"
// path. smoothing is the Laplace count for LogOddsSmoothed (values <= 0
// fall back to the database's own smoothing).
func MicroFromStats(db *featstats.DB, att core.Attention, smoothing float64) *core.Model {
	m := core.NewModel(att)
	for key := range db.Stats {
		text, ok := featstats.ParseTermKey(key)
		if !ok {
			continue
		}
		m.Relevance[text] = ml.Sigmoid(db.LogOddsSmoothed(key, smoothing))
	}
	return m
}
