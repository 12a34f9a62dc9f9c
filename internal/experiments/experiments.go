// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic ADCORPUS:
//
//   - Table 2: recall/precision/F-measure of creative classification for
//     the six feature ablations M1–M6 under 10-fold cross-validation;
//   - Figure 3: the learned term position weights for snippet lines
//     1–3, read out of the coupled model's position factor;
//   - Table 4: classification accuracy with top-block vs right-hand-side
//     ad placements.
//
// Absolute numbers differ from the paper (its substrate is Google's
// private ad corpus; ours is a simulator). Of the comparisons the paper
// draws, two hold at the default setup: position information helps
// every variant (M2 > M1, M4 > M3, M6 > M5), and top-block accuracy is
// above RHS, in direction though not in size. The other three —
// rewrites beat bags of terms, the combined M6 wins, attention decays
// with micro-position — are not reproduced at the default setup. The
// paper-vs-measured record is ROADMAP.md item 1's to write.
package experiments

import (
	"fmt"

	"repro/internal/adcorpus"
	"repro/internal/classifier"
	"repro/internal/featstats"
	"repro/internal/serp"
	"repro/internal/snippet"
)

// Setup bundles one experimental configuration: corpus scale, serving
// simulation, and learner options.
type Setup struct {
	// Seed drives corpus generation, simulation, fold assignment and
	// pair orientation.
	Seed int64
	// Groups is the number of adgroups in the evaluation corpus
	// (default 1200).
	Groups int
	// StatsGroups is the number of adgroups in the *disjoint* corpus the
	// feature statistics database is built from (default 3×Groups). The
	// paper computes statistics over the complete ADCORPUS, whose scale
	// makes any one pair's contribution to a feature's counts negligible;
	// at laptop scale the equivalent honest construction is a separate
	// statistics corpus, otherwise rare features leak their own pair's
	// label through the initial weights.
	StatsGroups int
	// Impressions per creative (default 800, the calibrated level at
	// which serve-weight noise keeps accuracy in the paper's band).
	Impressions int
	// Placement is the ad block to simulate (default Top).
	Placement serp.Placement
	// Folds is the cross-validation fold count (default 10, as in the
	// paper).
	Folds int
	// MinImpressions gates creatives out of pair extraction
	// (default 100).
	MinImpressions int64
	// Opt tunes the learners.
	Opt classifier.Options
}

// DefaultSetup returns the configuration used for the reported numbers.
func DefaultSetup() Setup {
	return Setup{
		Seed:        2019, // ICDE year, fittingly
		Groups:      1200,
		Impressions: 800,
		Placement:   serp.Top,
		Folds:       10,
	}
}

func (s Setup) withDefaults() Setup {
	if s.Groups <= 0 {
		s.Groups = 1200
	}
	if s.StatsGroups <= 0 {
		s.StatsGroups = 5 * s.Groups
	}
	if s.Impressions <= 0 {
		s.Impressions = 800
	}
	if s.Folds <= 0 {
		s.Folds = 10
	}
	if s.MinImpressions <= 0 {
		s.MinImpressions = 100
	}
	return s
}

// Data is the materialised experimental data: labelled pairs and the
// phase-one statistics database.
type Data struct {
	Pairs []snippet.Pair
	DB    *featstats.DB
}

// BuildData generates the evaluation corpus and the disjoint statistics
// corpus, simulates serving on both, and runs phase one on the
// statistics corpus only.
func BuildData(s Setup) *Data {
	s = s.withDefaults()
	lex := adcorpus.DefaultLexicon()
	ex := classifier.NewExtractor()
	ex.MinImpressions = s.MinImpressions

	statsCorpus := adcorpus.Generate(adcorpus.Config{Seed: s.Seed + 100, Groups: s.StatsGroups}, lex)
	statsGroups := serp.New(serp.Config{
		Seed:        s.Seed + 101,
		Impressions: s.Impressions,
		Placement:   s.Placement,
	}).Run(statsCorpus)
	db := ex.BuildDB(statsGroups)

	evalCorpus := adcorpus.Generate(adcorpus.Config{Seed: s.Seed, Groups: s.Groups}, lex)
	evalGroups := serp.New(serp.Config{
		Seed:        s.Seed + 1,
		Impressions: s.Impressions,
		Placement:   s.Placement,
	}).Run(evalCorpus)

	return &Data{Pairs: ex.Pairs(evalGroups), DB: db}
}

// Table2 runs the six-model ablation of Table 2 and returns one result
// per model, in order M1..M6.
func Table2(s Setup) ([]classifier.Result, error) {
	s = s.withDefaults()
	data := BuildData(s)
	return Table2On(s, data)
}

// Table2On runs Table 2 on prebuilt data (so Table 4 can reuse builds).
func Table2On(s Setup, data *Data) ([]classifier.Result, error) {
	s = s.withDefaults()
	var out []classifier.Result
	for _, spec := range classifier.Specs() {
		res, err := classifier.CrossValidate(spec, data.Pairs, data.DB, s.Folds, s.Seed+2, s.Opt)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Figure3 trains the full model M6 on all pairs and returns the learned
// term position weights per line: Lines[l][p] is the weight of position
// p+1 on line l+1. The planted attention decays within and across lines;
// the learned table should recover that shape.
type Figure3Data struct {
	Lines [][]float64
}

// figure3MinSupport is the evidence floor for reporting a learned
// position weight: cells backed by fewer occurrences are omitted, as a
// real study would bin or drop them.
const figure3MinSupport = 60

// Figure3 regenerates the paper's Figure 3.
func Figure3(s Setup) (*Figure3Data, error) {
	s = s.withDefaults()
	data := BuildData(s)
	pipe := classifier.NewPipeline(classifier.M6, data.DB)
	pipe.Seed = s.Seed + 2
	ds := pipe.Dataset(data.Pairs)
	opt := s.Opt
	if opt.Rounds == 0 {
		opt.Rounds = 10 // the figure reads P directly; let it converge
	}
	if opt.PosAnchor == 0 {
		// The figure reports P itself, so smooth rare cells toward the
		// corpus prior (the tables run unanchored for accuracy).
		opt.PosAnchor = 0.05
	}
	model, err := classifier.Train(ds, nil, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: figure 3: %w", err)
	}

	// Blank out cells without enough occurrences to mean anything, then
	// trim trailing empty cells per line.
	support := ds.PosSupport()
	supported := func(line, pos int) bool {
		for id, key := range ds.PosVocab.Texts() {
			p, l, ok := featstats.ParsePosKey(key)
			if ok && l == line && p == pos {
				return support[id] >= figure3MinSupport
			}
		}
		return false
	}
	lines := model.PositionWeights()
	for li := range lines {
		last := -1
		for pi := range lines[li] {
			if supported(li+1, pi+1) {
				last = pi
			} else {
				lines[li][pi] = 0
			}
		}
		lines[li] = lines[li][:last+1]
	}
	return &Figure3Data{Lines: lines}, nil
}

// Table4Row is one row of Table 4: accuracy at top vs RHS placement.
type Table4Row struct {
	Spec classifier.ModelSpec
	Top  float64
	RHS  float64
}

// Table4 reruns the ablation with top-block and RHS serving.
func Table4(s Setup) ([]Table4Row, error) {
	s = s.withDefaults()
	top := s
	top.Placement = serp.Top
	rhs := s
	rhs.Placement = serp.RHS

	topRes, err := Table2On(top, BuildData(top))
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 top: %w", err)
	}
	rhsRes, err := Table2On(rhs, BuildData(rhs))
	if err != nil {
		return nil, fmt.Errorf("experiments: table 4 rhs: %w", err)
	}
	rows := make([]Table4Row, len(topRes))
	for i := range topRes {
		rows[i] = Table4Row{
			Spec: topRes[i].Spec,
			Top:  topRes[i].Mean.Accuracy,
			RHS:  rhsRes[i].Mean.Accuracy,
		}
	}
	return rows, nil
}

// PaperTable2 returns the values published in Table 2 of the paper, for
// side-by-side reporting (recall, precision, F-measure per model).
func PaperTable2() map[string][3]float64 {
	return map[string][3]float64{
		"M1": {0.559, 0.582, 0.570},
		"M2": {0.644, 0.663, 0.653},
		"M3": {0.590, 0.612, 0.601},
		"M4": {0.700, 0.719, 0.709},
		"M5": {0.597, 0.618, 0.607},
		"M6": {0.704, 0.721, 0.712},
	}
}

// PaperTable4 returns the published Table 4 accuracies (top, rhs).
func PaperTable4() map[string][2]float64 {
	return map[string][2]float64{
		"M1": {0.571, 0.570},
		"M2": {0.657, 0.651},
		"M3": {0.602, 0.599},
		"M4": {0.711, 0.708},
		"M5": {0.609, 0.606},
		"M6": {0.714, 0.711},
	}
}
