// Package serp simulates the serving side of sponsored search: it takes
// a synthetic ad corpus (internal/adcorpus) and produces impressions and
// clicks from a ground-truth *micro-browsing* user, yielding the per-
// creative statistics (and hence serve weights) that the paper's
// classifier consumes.
//
// The user model has two layers, mirroring the paper's decomposition of
// CTR into examination and perceived relevance:
//
//   - Macro layer: whether the ad itself is examined. The ad lands at a
//     random slot of the top block or the right-hand side (RHS) block,
//     each with its own position-examination curve — top slots are
//     examined far more often than RHS slots (Table 4's split).
//   - Micro layer: given the ad is examined, the user reads each
//     appeal-bearing phrase of the creative with the attention
//     probability of its (line, position) micro-position, and clicks
//     with probability sigmoid(base + Σ appeal of phrases actually
//     read). This is exactly the generative story of the paper's
//     Section III model, with the product-form relevance replaced by
//     its log-linear analogue so that appeals compose additively in
//     log-odds space.
//
// Because creatives within an adgroup are served uniformly at the same
// placement mix, the macro layer multiplies every creative's CTR by the
// same constant in expectation — serve weights isolate the micro
// (creative text) effect, as the paper's ADCORPUS construction intends.
// What the macro layer does change is the effective number of examined
// impressions, i.e. the sampling noise of serve weights: RHS placements
// yield noisier labels and slightly lower classifier accuracy.
package serp

import (
	"math/rand"

	"repro/internal/adcorpus"
	"repro/internal/clickmodel"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/snippet"
)

// Placement selects the ad block whose examination curve governs the
// macro layer.
type Placement int

const (
	// Top is the mainline block above organic results.
	Top Placement = iota
	// RHS is the right-hand-side block.
	RHS
)

// String returns the placement name used in reports.
func (p Placement) String() string {
	if p == RHS {
		return "rhs"
	}
	return "top"
}

// DefaultTopGamma and DefaultRHSGamma are the macro examination curves:
// probability that an ad shown at slot i (0-based) of the block is
// examined at all.
var (
	DefaultTopGamma = []float64{0.90, 0.65, 0.45, 0.30}
	DefaultRHSGamma = []float64{0.45, 0.30, 0.20, 0.14, 0.10, 0.07}
)

// DefaultAttention is the planted micro-attention curve: line 1 is read
// most, line 3 least, and attention decays steeply along each line —
// users skim ad snippets. Figure 3's learned position weights should
// recover this shape.
func DefaultAttention() core.GeometricAttention {
	return core.GeometricAttention{LineWeights: []float64{0.95, 0.65, 0.35}, Decay: 0.78}
}

// Config parameterises a simulation run.
type Config struct {
	// Seed drives all randomness (deterministic given Seed).
	Seed int64
	// Impressions per creative (default 1500; serve weights are then
	// noisy enough that pair labels are imperfect, which is what keeps
	// classification accuracy in the paper's 55–72%% band).
	Impressions int
	// Placement chooses the macro examination curve (default Top).
	Placement Placement
	// Attention is the micro-attention ground truth; nil uses
	// DefaultAttention.
	Attention core.Attention
	// BaseLogit is the click log-odds of an examined creative with no
	// appeal phrases read (default -2.5 ≈ 7.6% CTR).
	BaseLogit float64
	// MacroGamma overrides the placement's examination curve.
	MacroGamma []float64
}

func (c *Config) defaults() {
	if c.Impressions <= 0 {
		c.Impressions = 1500
	}
	if c.Attention == nil {
		c.Attention = DefaultAttention()
	}
	if c.BaseLogit == 0 {
		c.BaseLogit = -2.5
	}
	if c.MacroGamma == nil {
		if c.Placement == RHS {
			c.MacroGamma = DefaultRHSGamma
		} else {
			c.MacroGamma = DefaultTopGamma
		}
	}
}

// Simulator runs the two-layer user model over a corpus.
type Simulator struct {
	cfg Config
	rng *rand.Rand
}

// New returns a simulator for the configuration.
func New(cfg Config) *Simulator {
	cfg.defaults()
	return &Simulator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// microClick samples the micro layer: reads each slot with its
// positional attention and draws the click.
func (s *Simulator) microClick(c *adcorpus.Creative) bool {
	logit := s.cfg.BaseLogit
	for _, sl := range c.Slots {
		if s.rng.Float64() < s.cfg.Attention.Examine(sl.Line, sl.Pos) {
			logit += sl.Appeal
		}
	}
	return s.rng.Float64() < ml.Sigmoid(logit)
}

// Impress simulates one impression of the creative and reports whether
// the ad was macro-examined and whether it was clicked.
func (s *Simulator) Impress(c *adcorpus.Creative) (examined, clicked bool) {
	slot := s.rng.Intn(len(s.cfg.MacroGamma))
	if s.rng.Float64() >= s.cfg.MacroGamma[slot] {
		return false, false
	}
	return true, s.microClick(c)
}

// MarginalClickProb returns the exact probability that an *examined*
// impression of the creative is clicked, marginalising over the 2^n
// micro-examination patterns of its n slots. The generator produces at
// most a handful of slots, so exact enumeration is cheap; creatives with
// more than 20 slots fall back to the base logit with all slots read
// half the time (never reached with the built-in generator).
func (s *Simulator) MarginalClickProb(c *adcorpus.Creative) float64 {
	n := len(c.Slots)
	if n > 20 {
		logit := s.cfg.BaseLogit
		for _, sl := range c.Slots {
			logit += sl.Appeal * s.cfg.Attention.Examine(sl.Line, sl.Pos)
		}
		return ml.Sigmoid(logit)
	}
	var total float64
	for mask := 0; mask < 1<<n; mask++ {
		p := 1.0
		logit := s.cfg.BaseLogit
		for i, sl := range c.Slots {
			a := s.cfg.Attention.Examine(sl.Line, sl.Pos)
			if mask&(1<<i) != 0 {
				p *= a
				logit += sl.Appeal
			} else {
				p *= 1 - a
			}
		}
		total += p * ml.Sigmoid(logit)
	}
	return total
}

// Run simulates Impressions impressions for every creative of every
// group and returns the corpus as stats-filled adgroups ready for pair
// extraction.
func (s *Simulator) Run(corpus *adcorpus.Corpus) []snippet.AdGroup {
	groups := make([]snippet.AdGroup, 0, len(corpus.Groups))
	for gi := range corpus.Groups {
		g := &corpus.Groups[gi]
		ag := snippet.AdGroup{ID: g.ID, Keyword: g.Keyword}
		for ci := range g.Creatives {
			c := &g.Creatives[ci]
			var st snippet.Stats
			for k := 0; k < s.cfg.Impressions; k++ {
				st.Impressions++
				if _, clicked := s.Impress(c); clicked {
					st.Clicks++
				}
			}
			ag.Creatives = append(ag.Creatives, c.Snippet())
			ag.Stats = append(ag.Stats, st)
		}
		groups = append(groups, ag)
	}
	return groups
}

// normAds clamps an ads-per-page request to the macro curve's depth.
func (s *Simulator) normAds(adsPerPage int) int {
	if adsPerPage <= 0 || adsPerPage > len(s.cfg.MacroGamma) {
		return len(s.cfg.MacroGamma)
	}
	return adsPerPage
}

// Session simulates one SERP session: adsPerPage creatives (drawn from
// distinct random groups) shown as a ranked list, the macro curve
// gating examination per position and the micro layer deciding clicks.
// It is the streaming form of Sessions — a traffic generator (e.g.
// cmd/loadgen replaying impressions against the feedback API) calls it
// per impression without materialising a log.
func (s *Simulator) Session(corpus *adcorpus.Corpus, adsPerPage int) clickmodel.Session {
	adsPerPage = s.normAds(adsPerPage)
	docs := make([]string, adsPerPage)
	clicks := make([]bool, adsPerPage)
	seen := make(map[int]bool, adsPerPage)
	for i := 0; i < adsPerPage; i++ {
		gi := s.rng.Intn(len(corpus.Groups))
		for seen[gi] {
			gi = s.rng.Intn(len(corpus.Groups))
		}
		seen[gi] = true
		g := &corpus.Groups[gi]
		c := &g.Creatives[s.rng.Intn(len(g.Creatives))]
		docs[i] = c.ID
		if s.rng.Float64() < s.cfg.MacroGamma[i] {
			clicks[i] = s.microClick(c)
		}
	}
	return clickmodel.Session{Query: "serp", Docs: docs, Clicks: clicks}
}

// Sessions simulates SERP sessions for the click-model substrate; the
// resulting log is suitable for fitting any Model in
// internal/clickmodel. Equivalent to nSessions calls to Session.
func (s *Simulator) Sessions(corpus *adcorpus.Corpus, nSessions, adsPerPage int) []clickmodel.Session {
	adsPerPage = s.normAds(adsPerPage)
	sessions := make([]clickmodel.Session, 0, nSessions)
	for k := 0; k < nSessions; k++ {
		sessions = append(sessions, s.Session(corpus, adsPerPage))
	}
	return sessions
}

// SnippetFeedback simulates aggregated micro feedback for one random
// creative: impressions examined impressions of its snippet and the
// clicks the micro layer produced. The returned lines alias the
// creative's text; treat them as read-only.
func (s *Simulator) SnippetFeedback(corpus *adcorpus.Corpus, impressions int) (lines []string, clicks int) {
	g := &corpus.Groups[s.rng.Intn(len(corpus.Groups))]
	c := &g.Creatives[s.rng.Intn(len(g.Creatives))]
	for k := 0; k < impressions; k++ {
		if s.microClick(c) {
			clicks++
		}
	}
	return c.Lines, clicks
}

// TrueModel exposes the planted micro-browsing model as a core.Model for
// oracle comparisons: relevance is the sigmoid-mapped appeal of each
// phrase (appeal 0 → 0.5) and attention is the planted curve.
func (s *Simulator) TrueModel(lex *adcorpus.Lexicon) *core.Model {
	m := core.NewModel(s.cfg.Attention)
	for text, appeal := range lex.AppealMap() {
		m.Relevance[text] = ml.Sigmoid(appeal)
	}
	return m
}
