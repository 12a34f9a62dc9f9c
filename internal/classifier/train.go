package classifier

import (
	"errors"
	"fmt"

	"repro/internal/coupled"
	"repro/internal/featstats"
	"repro/internal/ml"
	"repro/internal/snippet"
	"repro/internal/textproc"
)

// Options tunes the learners. The zero value selects the defaults used
// throughout the experiments.
type Options struct {
	// L1 is the L1 strength for relevance weights (default 1e-4).
	L1 float64
	// Epochs is the inner gradient-descent pass count (default 140).
	Epochs int
	// LearningRate is the gradient step (default 0.5).
	LearningRate float64
	// Rounds is the coupled-alternation count for positional models
	// (default 7).
	Rounds int
	// PosAnchor, when positive, regularises position weights toward
	// their corpus prior with this strength. Off by default: it smooths
	// the learned position table (Figure 3) at a small accuracy cost.
	PosAnchor float64
}

func (o Options) l1() float64 {
	if o.L1 <= 0 {
		return 1e-4
	}
	return o.L1
}

func (o Options) epochs() int {
	if o.Epochs <= 0 {
		return 140
	}
	return o.Epochs
}

func (o Options) learningRate() float64 {
	if o.LearningRate <= 0 {
		return 0.5
	}
	return o.LearningRate
}

func (o Options) rounds() int {
	if o.Rounds <= 0 {
		return 7
	}
	return o.Rounds
}

// Trained is a fitted snippet classifier of either learner family.
type Trained struct {
	Spec ModelSpec
	// Flat is set for position-free specs, Coup for positional ones.
	Flat *ml.LogisticRegression
	Coup *coupled.Model
	// Vocabularies of the dataset the model was trained on.
	RelVocab, PosVocab *textproc.Vocab
}

// Train fits the spec's learner on the instances of ds selected by idx
// (nil means all instances).
func Train(ds *Dataset, idx []int, opt Options) (*Trained, error) {
	t := &Trained{Spec: ds.Spec, RelVocab: ds.RelVocab, PosVocab: ds.PosVocab}
	if ds.Spec.UsePosition {
		data := ds.Coup
		if idx != nil {
			data = make([]coupled.Instance, len(idx))
			for i, j := range idx {
				data[i] = ds.Coup[j]
			}
		}
		m := coupled.New()
		m.Rounds = opt.rounds()
		m.Epochs = opt.epochs()
		m.LearningRate = opt.learningRate()
		m.L1T = opt.l1()
		m.InitT = ds.InitRel
		m.InitP = ds.InitPos
		if opt.PosAnchor > 0 {
			// Anchor position weights to their corpus prior: rare
			// micro-positions then cannot earn free-form weights.
			m.AnchorP = ds.InitPos
			m.AnchorStrength = opt.PosAnchor
		}
		if err := m.Fit(data); err != nil {
			return nil, fmt.Errorf("classifier: %s: %w", ds.Spec.Name, err)
		}
		t.Coup = m
		return t, nil
	}

	data := ds.Flat
	if idx != nil {
		data = make([]ml.Instance, len(idx))
		for i, j := range idx {
			data[i] = ds.Flat[j]
		}
	}
	m := &ml.LogisticRegression{
		L1:             opt.l1(),
		Epochs:         opt.epochs(),
		LearningRate:   opt.learningRate(),
		InitialWeights: ds.InitRel,
	}
	if err := m.Fit(data); err != nil {
		return nil, fmt.Errorf("classifier: %s: %w", ds.Spec.Name, err)
	}
	t.Flat = m
	return t, nil
}

// PredictIdx returns P(first creative is better) for the dataset
// instances selected by idx (nil means all).
func (t *Trained) PredictIdx(ds *Dataset, idx []int) []float64 {
	n := ds.Len()
	if idx != nil {
		n = len(idx)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		j := i
		if idx != nil {
			j = idx[i]
		}
		if t.Coup != nil {
			out[i] = t.Coup.Predict(&ds.Coup[j])
		} else {
			out[i] = t.Flat.Predict(&ds.Flat[j])
		}
	}
	return out
}

// PredictPair scores a creative pair that was not necessarily part of
// the training data: the pipeline extracts the spec's features, feature
// names are mapped through the training vocabularies, and features never
// seen in training are ignored. Returns P(R beats S).
func (t *Trained) PredictPair(p *Pipeline, pair snippet.Pair) float64 {
	occs := p.occurrences(pair)
	if t.Coup != nil {
		in := coupled.Instance{}
		for _, o := range occs {
			relID, ok := t.RelVocab.Lookup(o.relKey)
			if !ok {
				continue
			}
			posID, ok := t.PosVocab.Lookup(o.posKey)
			if !ok {
				continue
			}
			in.Occs = append(in.Occs, coupled.Occurrence{PosID: int(posID), RelID: int(relID), Dir: o.dir})
		}
		return t.Coup.Predict(&in)
	}
	in := ml.Instance{}
	for _, o := range occs {
		if relID, ok := t.RelVocab.Lookup(o.relKey); ok {
			in.Features = append(in.Features, ml.Feature{ID: int(relID), Val: o.dir})
		}
	}
	in.Canonicalize()
	return t.Flat.Predict(&in)
}

// PositionWeights extracts the learned term-position weights as a
// [line][pos] table (1-based coordinates at index line-1, pos-1) — the
// quantity plotted in the paper's Figure 3. Only positional models have
// them; others return nil.
func (t *Trained) PositionWeights() [][]float64 {
	if t.Coup == nil || t.PosVocab == nil {
		return nil
	}
	var table [][]float64
	for id, key := range t.PosVocab.Texts() {
		pos, line, ok := featstats.ParsePosKey(key)
		if !ok || line < 1 || pos < 1 {
			continue
		}
		for len(table) < line {
			table = append(table, nil)
		}
		row := table[line-1]
		for len(row) < pos {
			row = append(row, 0)
		}
		if id < len(t.Coup.P) {
			row[pos-1] = t.Coup.P[id]
		}
		table[line-1] = row
	}
	return table
}

// Result is the cross-validated performance of one spec, in the shape of
// a Table 2 row.
type Result struct {
	Spec        ModelSpec
	Mean        ml.BinaryMetrics
	FoldMetrics []ml.BinaryMetrics
	Instances   int
	RelFeatures int
	PosFeatures int
}

// CrossValidate runs k-fold cross-validation of the spec on the pairs,
// with the statistics database db providing matching scores and initial
// weights.
func CrossValidate(spec ModelSpec, pairs []snippet.Pair, db *featstats.DB, k int, seed int64, opt Options) (Result, error) {
	pipe := NewPipeline(spec, db)
	pipe.Seed = seed
	ds := pipe.Dataset(pairs)
	if ds.Len() == 0 {
		return Result{}, errors.New("classifier: no usable pairs")
	}
	folds, err := ml.KFold(ds.Len(), k, seed)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Spec:        spec,
		Instances:   ds.Len(),
		RelFeatures: ds.RelVocab.Len(),
		PosFeatures: ds.PosVocab.Len(),
	}
	for fi, fold := range folds {
		model, err := Train(ds, fold.Train, opt)
		if err != nil {
			return Result{}, fmt.Errorf("fold %d: %w", fi, err)
		}
		preds := model.PredictIdx(ds, fold.Test)
		labels := make([]bool, len(fold.Test))
		for i, j := range fold.Test {
			labels[i] = ds.Labels[j]
		}
		res.FoldMetrics = append(res.FoldMetrics, ml.EvaluateBinary(preds, labels))
	}
	res.Mean = ml.MeanMetrics(res.FoldMetrics)
	return res, nil
}
