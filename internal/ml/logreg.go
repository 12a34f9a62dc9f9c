package ml

import (
	"errors"
	"math"
)

// Sigmoid returns 1/(1+exp(-z)) computed stably for large |z|.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// SoftThreshold is the proximal operator of the L1 norm:
// sign(v)·max(|v|−t, 0).
func SoftThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

// LogisticRegression is an L1-regularised logistic regression model
// trained by proximal (batch) gradient descent. The paper's snippet
// classifier is "a logistic regression model with L1 regularization"
// whose weights are *initialised from the feature statistics database*;
// InitialWeights supports exactly that.
type LogisticRegression struct {
	// Weights holds the learned coefficients indexed by feature id.
	Weights []float64
	// Bias is the intercept (never regularised).
	Bias float64

	// L1 is the L1 penalty strength (default 1e-4).
	L1 float64
	// L2 is an optional ridge penalty (default 0).
	L2 float64
	// LearningRate is the gradient step size (default 0.5).
	LearningRate float64
	// Epochs is the maximum number of full passes (default 100).
	Epochs int
	// Tolerance stops training when the mean absolute weight update
	// falls below it (default 1e-6).
	Tolerance float64
	// InitialWeights, if non-nil, seeds the optimiser; the slice is
	// copied, not aliased.
	InitialWeights []float64
	// AnchorWeights with AnchorStrength > 0 add a Gaussian prior centred
	// on AnchorWeights: the gradient gains AnchorStrength·(w − anchor).
	// Used to keep position weights near their corpus-statistics prior.
	AnchorWeights  []float64
	AnchorStrength float64
	// FreezeWeights, if true, skips gradient updates of Weights and only
	// fits the bias. Used by the coupled trainer to hold one factor
	// fixed.
	FreezeWeights bool
}

func (m *LogisticRegression) defaults() {
	if m.LearningRate <= 0 {
		m.LearningRate = 0.5
	}
	if m.Epochs <= 0 {
		m.Epochs = 100
	}
	if m.Tolerance <= 0 {
		m.Tolerance = 1e-6
	}
}

// Fit trains on the dataset. It is deterministic.
func (m *LogisticRegression) Fit(data []Instance) error {
	if len(data) == 0 {
		return errors.New("ml: empty training set")
	}
	if err := CheckDataset(data); err != nil {
		return err
	}
	m.defaults()
	dim := MaxFeatureID(data) + 1
	if len(m.InitialWeights) > dim {
		dim = len(m.InitialWeights)
	}
	m.Weights = make([]float64, dim)
	copy(m.Weights, m.InitialWeights)

	grad := make([]float64, dim)
	n := float64(len(data))
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for i := range grad {
			grad[i] = 0
		}
		var gradBias float64
		for i := range data {
			in := &data[i]
			p := Sigmoid(in.Dot(m.Weights) + m.Bias)
			y := 0.0
			if in.Label {
				y = 1
			}
			g := p - y
			for _, f := range in.Features {
				grad[f.ID] += g * f.Val
			}
			gradBias += g
		}

		lr := m.LearningRate
		var delta float64
		if !m.FreezeWeights {
			for j := 0; j < dim; j++ {
				g := grad[j]/n + m.L2*m.Weights[j]
				if m.AnchorStrength > 0 && j < len(m.AnchorWeights) {
					g += m.AnchorStrength * (m.Weights[j] - m.AnchorWeights[j])
				}
				w := m.Weights[j] - lr*g
				w = SoftThreshold(w, lr*m.L1)
				delta += math.Abs(w - m.Weights[j])
				m.Weights[j] = w
			}
		}
		b := m.Bias - lr*gradBias/n
		delta += math.Abs(b - m.Bias)
		m.Bias = b

		if delta/float64(dim+1) < m.Tolerance {
			break
		}
	}
	return nil
}

// Predict returns P(label = true) for the instance.
func (m *LogisticRegression) Predict(in *Instance) float64 {
	return Sigmoid(in.Dot(m.Weights) + m.Bias)
}
