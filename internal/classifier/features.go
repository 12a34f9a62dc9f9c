package classifier

import (
	"math/rand"

	"repro/internal/coupled"
	"repro/internal/featstats"
	"repro/internal/ml"
	"repro/internal/rewrite"
	"repro/internal/snippet"
	"repro/internal/textproc"
)

// occurrence is the spec-independent intermediate feature: a relevance
// feature at a micro-position with a direction (+1 favours the first
// creative of the oriented pair).
type occurrence struct {
	posKey string
	relKey string
	dir    float64
}

// Pipeline is phase two of the framework (the "classifier data
// generator" box of Figure 1): it turns labelled creative pairs into
// instances for the spec's learner, with initial weights looked up in
// the statistics database.
type Pipeline struct {
	Spec ModelSpec
	DB   *featstats.DB
	// MaxN is the n-gram ceiling (default 3).
	MaxN int
	// Seed randomises pair orientation so the two classes are balanced
	// (default used as-is; generation is deterministic given Seed).
	Seed int64
	// InitSmoothing is the Laplace count used when turning database
	// statistics into initial weights (default 8): rare features shrink
	// toward zero rather than inheriting large noisy odds.
	InitSmoothing float64
	// MinMatchScore is the evidence floor for accepting a content
	// rewrite during matching (default log1p(8); moves always match).
	MinMatchScore float64

	matcher *rewrite.Matcher
}

// NewPipeline returns a pipeline for the spec over the given statistics
// database.
func NewPipeline(spec ModelSpec, db *featstats.DB) *Pipeline {
	return &Pipeline{Spec: spec, DB: db, MaxN: 3, Seed: 1, InitSmoothing: 8, MinMatchScore: 2.2}
}

func (p *Pipeline) getMatcher() *rewrite.Matcher {
	if p.matcher == nil {
		p.matcher = rewrite.NewMatcher(p.DB)
		if p.MaxN > 0 {
			p.matcher.MaxN = p.MaxN
		}
		p.matcher.MinScore = p.MinMatchScore
	}
	return p.matcher
}

// occurrences extracts the spec's features from one oriented pair.
// Positional specs diff by (text, position) so that moved phrases become
// features; position-free specs diff by text only, exactly the paper's
// "v_a and w_b set to 1 for all terms" degenerate case.
func (p *Pipeline) occurrences(pair snippet.Pair) []occurrence {
	m := p.getMatcher()
	var onlyR, onlyS []textproc.Term
	if p.Spec.UsePosition {
		onlyR, onlyS = m.DiffPositional(pair.R, pair.S)
	} else {
		onlyR, onlyS = m.Diff(pair.R, pair.S)
	}
	var occs []occurrence

	termOcc := func(t textproc.Term, dir float64) occurrence {
		return occurrence{
			posKey: featstats.PosKey(t.Pos, t.Line),
			relKey: featstats.TermKey(t.Text),
			dir:    dir,
		}
	}

	if p.Spec.UseRewrites {
		match := m.MatchTerms(onlyR, onlyS)
		for _, rp := range match.Pairs {
			if rp.From.Text == rp.To.Text {
				// A moved phrase. In the rewrite-only models Eq. 6
				// decomposes it into two occurrences of the same
				// relevance weight at the two positions:
				// T[a]·(P[p] − P[q]). When term features are also on,
				// the term family below already covers the move.
				if !p.Spec.UseTerms {
					occs = append(occs,
						occurrence{
							posKey: featstats.PosKey(rp.From.Pos, rp.From.Line),
							relKey: featstats.TermKey(rp.From.Text),
							dir:    +1,
						},
						occurrence{
							posKey: featstats.PosKey(rp.To.Pos, rp.To.Line),
							relKey: featstats.TermKey(rp.To.Text),
							dir:    -1,
						})
				}
				continue
			}
			occs = append(occs, occurrence{
				posKey: featstats.RewritePosKey(rp.From.Pos, rp.From.Line, rp.To.Pos, rp.To.Line),
				relKey: featstats.RewriteKey(rp.From.Text, rp.To.Text),
				dir:    +1,
			})
		}
	}

	if p.Spec.UseTerms {
		// The term family: every differing term on either side. In the
		// combined models (M5/M6) this is the union with the rewrite
		// family — a matched rewrite contributes its pairwise feature
		// *and* the two term marginals, as when M1's and M3's feature
		// sets are joined.
		for _, t := range onlyR {
			occs = append(occs, termOcc(t, +1))
		}
		for _, t := range onlyS {
			occs = append(occs, termOcc(t, -1))
		}
	}
	return occs
}

// Dataset is the materialised training data for one spec: flat instances
// for position-free models, coupled instances for positional ones, plus
// the vocabularies and the stats-DB initial weight vectors.
type Dataset struct {
	Spec     ModelSpec
	Flat     []ml.Instance
	Coup     []coupled.Instance
	Labels   []bool
	RelVocab *textproc.Vocab
	PosVocab *textproc.Vocab
	// InitRel[i] is the stats-DB log-odds for relevance feature i;
	// InitPos[i] the normalised position prior for position feature i.
	InitRel []float64
	InitPos []float64
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Labels) }

// PosSupport returns, per position-feature id, the number of coupled
// occurrences backing it — the evidence behind each learned position
// weight.
func (d *Dataset) PosSupport() []int {
	support := make([]int, d.PosVocab.Len())
	for i := range d.Coup {
		for _, o := range d.Coup[i].Occs {
			if o.PosID < len(support) {
				support[o.PosID]++
			}
		}
	}
	return support
}

// Dataset generates instances for every pair. Each pair's orientation is
// randomised (deterministically from Seed) so that the positive and
// negative classes are balanced; pairs with a tied label are skipped.
// Pairs from which the spec extracts no features are kept as empty
// instances (the model abstains to a coin flip on them), so every spec
// is evaluated on the same pair population.
func (p *Pipeline) Dataset(pairs []snippet.Pair) *Dataset {
	rng := rand.New(rand.NewSource(p.Seed))
	ds := &Dataset{
		Spec:     p.Spec,
		RelVocab: &textproc.Vocab{},
		PosVocab: &textproc.Vocab{},
	}
	for _, pair := range pairs {
		if pair.Label() == 0 {
			continue
		}
		oriented := pair
		if rng.Float64() < 0.5 {
			oriented = pair.Swap()
		}
		occs := p.occurrences(oriented)
		label := oriented.Label() > 0

		if p.Spec.UsePosition {
			ci := coupled.Instance{Label: label}
			for _, o := range occs {
				ci.Occs = append(ci.Occs, coupled.Occurrence{
					PosID: int(ds.PosVocab.ID(o.posKey)),
					RelID: int(ds.RelVocab.ID(o.relKey)),
					Dir:   o.dir,
				})
			}
			ds.Coup = append(ds.Coup, ci)
		} else {
			in := ml.Instance{Label: label}
			for _, o := range occs {
				in.Features = append(in.Features, ml.Feature{ID: int(ds.RelVocab.ID(o.relKey)), Val: o.dir})
			}
			in.Canonicalize()
			ds.Flat = append(ds.Flat, in)
		}
		ds.Labels = append(ds.Labels, label)
	}
	p.initWeights(ds)
	return ds
}

// initWeights fills the stats-DB initialisation vectors. Initial weights
// use evidence-shrunk log odds: a feature observed only a handful of
// times starts near zero regardless of how lopsided its few outcomes
// were.
func (p *Pipeline) initWeights(ds *Dataset) {
	ds.InitRel = make([]float64, ds.RelVocab.Len())
	if p.Spec.UseStatsInit {
		for i, key := range ds.RelVocab.Texts() {
			ds.InitRel[i] = p.DB.LogOddsSmoothed(key, p.InitSmoothing)
		}
	}
	ds.InitPos = make([]float64, ds.PosVocab.Len())
	if !p.Spec.UsePosition {
		return
	}
	if !p.Spec.UseStatsInit {
		for i := range ds.InitPos {
			ds.InitPos[i] = 1
		}
		return
	}
	// Position priors: map the position feature's shrunk win probability
	// to a weight with 1.0 at the neutral point (p = 0.5), so
	// uninformative positions start at full attention rather than being
	// crushed by a noisy maximum.
	for i, key := range ds.PosVocab.Texts() {
		lo := p.DB.LogOddsSmoothed(key, p.InitSmoothing)
		ds.InitPos[i] = 2 * ml.Sigmoid(lo)
	}
}
