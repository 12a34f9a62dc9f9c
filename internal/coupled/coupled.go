// Package coupled implements the coupled logistic regression of
// Section V-D.1 (Eq. 9):
//
//	log O = Σ_{(p,q) ∈ pair(R,S)} P_{p,q} · T_{p,q}
//
// where O is the odds that creative R beats creative S, P are position
// weights and T are (term or rewrite) relevance weights. Fixing P makes
// the model a logistic regression in T and vice versa, so the paper
// learns the two factors by alternating between two coupled logistic
// regressions. This package does exactly that, reusing the L1 logistic
// regression from internal/ml for each half-step.
//
// Two standard bilinear identifiability fixes are applied: position
// weights are kept non-negative (they model examination probabilities)
// and rescaled so their maximum is 1 after every round, pushing the
// overall scale into T. Both can be disabled.
package coupled

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ml"
)

// Occurrence is one active feature of a pair instance: the relevance
// feature RelID occurred at the micro-position PosID with direction
// Dir (+1 when the feature argues for creative R, -1 for S).
type Occurrence struct {
	PosID int
	RelID int
	Dir   float64
}

// Instance is one creative-pair example for the coupled model.
type Instance struct {
	Occs  []Occurrence
	Label bool // true when R has the higher CTR
}

// Model is the coupled bilinear logistic regression.
type Model struct {
	// P holds the learned position weights, T the relevance weights.
	P, T []float64
	// Bias is the intercept, learned in the T half-step.
	Bias float64

	// Rounds is the number of alternations (default 6).
	Rounds int
	// InitP and InitT seed the factors. Unset entries of P default
	// to 1 (FullAttention); T defaults to 0, which is where the
	// feature-statistics initialisation plugs in.
	InitP, InitT []float64
	// L1T and L1P are the per-factor L1 strengths (defaults 1e-4, 0:
	// positions are dense and few, terms are sparse and many).
	L1T, L1P float64
	// Epochs and LearningRate configure the inner LR half-steps
	// (defaults 60 and 0.5).
	Epochs       int
	LearningRate float64
	// NonNegativeP clamps position weights at zero (default true via
	// New; examination probabilities cannot be negative).
	NonNegativeP bool
	// NormalizeP rescales P to max 1 after each round (default true via
	// New), resolving the c·P, T/c scale ambiguity.
	NormalizeP bool
	// AnchorP with AnchorStrength > 0 imposes a Gaussian prior on the
	// position weights centred on AnchorP (typically the corpus
	// position-statistics prior), keeping rarely observed positions from
	// drifting on noise.
	AnchorP        []float64
	AnchorStrength float64
	// Tolerance stops alternation when the training log-loss improves
	// by less than this between rounds (default 1e-5).
	Tolerance float64
}

// New returns a coupled model with default hyper-parameters.
func New() *Model {
	return &Model{
		Rounds:       6,
		L1T:          1e-4,
		Epochs:       60,
		LearningRate: 0.5,
		NonNegativeP: true,
		NormalizeP:   true,
		Tolerance:    1e-5,
	}
}

func (m *Model) defaults() {
	if m.Rounds <= 0 {
		m.Rounds = 6
	}
	if m.Epochs <= 0 {
		m.Epochs = 60
	}
	if m.LearningRate <= 0 {
		m.LearningRate = 0.5
	}
	if m.Tolerance <= 0 {
		m.Tolerance = 1e-5
	}
}

// dims returns the required sizes of P and T.
func dims(data []Instance) (np, nt int) {
	for _, in := range data {
		for _, o := range in.Occs {
			if o.PosID+1 > np {
				np = o.PosID + 1
			}
			if o.RelID+1 > nt {
				nt = o.RelID + 1
			}
		}
	}
	return np, nt
}

// Fit trains the coupled model by alternating the two logistic
// regressions.
func (m *Model) Fit(data []Instance) error {
	if len(data) == 0 {
		return errors.New("coupled: empty training set")
	}
	for i, in := range data {
		for _, o := range in.Occs {
			if o.PosID < 0 || o.RelID < 0 {
				return fmt.Errorf("coupled: instance %d has negative feature id", i)
			}
		}
	}
	m.defaults()
	np, nt := dims(data)
	if len(m.InitP) > np {
		np = len(m.InitP)
	}
	if len(m.InitT) > nt {
		nt = len(m.InitT)
	}

	m.P = make([]float64, np)
	for i := range m.P {
		m.P[i] = 1 // FullAttention start: every position read
	}
	copy(m.P, m.InitP)
	m.T = make([]float64, nt)
	copy(m.T, m.InitT)

	prevLoss := math.Inf(1)
	for round := 0; round < m.Rounds; round++ {
		// T half-step: with P fixed, each occurrence contributes
		// Dir·P[pos] as the value of relevance feature RelID.
		tData := make([]ml.Instance, len(data))
		for i, in := range data {
			fs := make([]ml.Feature, 0, len(in.Occs))
			for _, o := range in.Occs {
				fs = append(fs, ml.Feature{ID: o.RelID, Val: o.Dir * m.P[o.PosID]})
			}
			tData[i] = ml.Instance{Features: fs, Label: in.Label}
			tData[i].Canonicalize()
		}
		tLR := &ml.LogisticRegression{
			L1:             m.L1T,
			LearningRate:   m.LearningRate,
			Epochs:         m.Epochs,
			InitialWeights: m.T,
		}
		if err := tLR.Fit(tData); err != nil {
			return fmt.Errorf("coupled: T half-step: %w", err)
		}
		copy(m.T, tLR.Weights)
		m.Bias = tLR.Bias

		// P half-step: with T fixed, each occurrence contributes
		// Dir·T[rel] as the value of position feature PosID.
		pData := make([]ml.Instance, len(data))
		for i, in := range data {
			fs := make([]ml.Feature, 0, len(in.Occs))
			for _, o := range in.Occs {
				fs = append(fs, ml.Feature{ID: o.PosID, Val: o.Dir * m.T[o.RelID]})
			}
			pData[i] = ml.Instance{Features: fs, Label: in.Label}
			pData[i].Canonicalize()
		}
		pLR := &ml.LogisticRegression{
			L1:             m.L1P,
			LearningRate:   m.LearningRate,
			Epochs:         m.Epochs,
			InitialWeights: m.P,
			AnchorWeights:  m.AnchorP,
			AnchorStrength: m.AnchorStrength,
		}
		if err := pLR.Fit(pData); err != nil {
			return fmt.Errorf("coupled: P half-step: %w", err)
		}
		copy(m.P, pLR.Weights)

		if m.NonNegativeP {
			for i, p := range m.P {
				if p < 0 {
					m.P[i] = 0
				}
			}
		}
		if m.NormalizeP {
			maxP := 0.0
			for _, p := range m.P {
				if p > maxP {
					maxP = p
				}
			}
			if maxP > 0 {
				for i := range m.P {
					m.P[i] /= maxP
				}
				for i := range m.T {
					m.T[i] *= maxP
				}
			}
		}

		loss := m.LogLoss(data)
		if prevLoss-loss < m.Tolerance {
			break
		}
		prevLoss = loss
	}
	return nil
}

// Score evaluates Eq. 9 for the instance: Σ Dir·P[pos]·T[rel] + bias.
func (m *Model) Score(in *Instance) float64 {
	s := m.Bias
	for _, o := range in.Occs {
		var p, t float64
		if o.PosID < len(m.P) {
			p = m.P[o.PosID]
		}
		if o.RelID < len(m.T) {
			t = m.T[o.RelID]
		}
		s += o.Dir * p * t
	}
	return s
}

// Predict returns P(R beats S) for the instance.
func (m *Model) Predict(in *Instance) float64 { return ml.Sigmoid(m.Score(in)) }

// LogLoss returns the mean negative log-likelihood on the data.
func (m *Model) LogLoss(data []Instance) float64 {
	if len(data) == 0 {
		return 0
	}
	var ll float64
	for i := range data {
		p := m.Predict(&data[i])
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		if data[i].Label {
			ll -= math.Log(p)
		} else {
			ll -= math.Log(1 - p)
		}
	}
	return ll / float64(len(data))
}
