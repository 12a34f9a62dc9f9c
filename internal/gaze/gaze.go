// Package gaze implements the eye-tracking extension sketched in the
// paper's future work: "we would also like to do eye-tracking studies to
// see how the positions of important words in the snippet correlate with
// focus areas identified by the eye tracking models", citing Zhao et
// al.'s HMM-based gaze prediction.
//
// The package provides a discrete hidden Markov model with Baum-Welch
// (EM) training, plus a gaze layer on top: fixation sequences over a
// snippet's micro-positions are modelled with hidden attention states
// (READING vs SKIMMING), and the trained model yields per-micro-position
// examination probabilities that can be compared against — or plugged
// into — the micro-browsing model's Attention layer.
//
// No eye-tracking hardware is available in this reproduction, so
// fixation sequences are simulated from a planted attention curve by
// Study.Scanpath; the round trip (simulate → fit → recover the curve)
// is what the tests validate, exactly the correlation study the paper
// proposes.
package gaze

import (
	"errors"
	"fmt"
	"math"
)

// HMM is a discrete hidden Markov model with K hidden states and M
// observation symbols.
type HMM struct {
	// Init[i] is the initial state distribution.
	Init []float64
	// Trans[i][j] is P(state j at t+1 | state i at t).
	Trans [][]float64
	// Emit[i][o] is P(observation o | state i).
	Emit [][]float64
}

// NewHMM returns an HMM with uniform parameters.
func NewHMM(states, symbols int) *HMM {
	h := &HMM{
		Init:  make([]float64, states),
		Trans: make([][]float64, states),
		Emit:  make([][]float64, states),
	}
	for i := 0; i < states; i++ {
		h.Init[i] = 1 / float64(states)
		h.Trans[i] = make([]float64, states)
		h.Emit[i] = make([]float64, symbols)
		for j := 0; j < states; j++ {
			h.Trans[i][j] = 1 / float64(states)
		}
		for o := 0; o < symbols; o++ {
			h.Emit[i][o] = 1 / float64(symbols)
		}
	}
	return h
}

// Validate checks distribution shapes and normalisation.
func (h *HMM) Validate() error {
	k := len(h.Init)
	if k == 0 || len(h.Trans) != k || len(h.Emit) != k {
		return errors.New("gaze: inconsistent HMM shapes")
	}
	checkDist := func(p []float64, what string) error {
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				return fmt.Errorf("gaze: negative probability in %s", what)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("gaze: %s sums to %v", what, sum)
		}
		return nil
	}
	if err := checkDist(h.Init, "init"); err != nil {
		return err
	}
	for i := range h.Trans {
		if err := checkDist(h.Trans[i], "transition row"); err != nil {
			return err
		}
		if err := checkDist(h.Emit[i], "emission row"); err != nil {
			return err
		}
	}
	return nil
}

// forward computes scaled forward variables and the log-likelihood.
func (h *HMM) forward(obs []int) (alpha [][]float64, scale []float64, ll float64) {
	k := len(h.Init)
	n := len(obs)
	alpha = make([][]float64, n)
	scale = make([]float64, n)
	for t := 0; t < n; t++ {
		alpha[t] = make([]float64, k)
		if t == 0 {
			for i := 0; i < k; i++ {
				alpha[0][i] = h.Init[i] * h.Emit[i][obs[0]]
			}
		} else {
			for j := 0; j < k; j++ {
				var s float64
				for i := 0; i < k; i++ {
					s += alpha[t-1][i] * h.Trans[i][j]
				}
				alpha[t][j] = s * h.Emit[j][obs[t]]
			}
		}
		for i := 0; i < k; i++ {
			scale[t] += alpha[t][i]
		}
		if scale[t] == 0 {
			scale[t] = 1e-300
		}
		for i := 0; i < k; i++ {
			alpha[t][i] /= scale[t]
		}
		ll += math.Log(scale[t])
	}
	return alpha, scale, ll
}

// backward computes scaled backward variables using forward's scales.
func (h *HMM) backward(obs []int, scale []float64) [][]float64 {
	k := len(h.Init)
	n := len(obs)
	beta := make([][]float64, n)
	beta[n-1] = make([]float64, k)
	for i := 0; i < k; i++ {
		beta[n-1][i] = 1 / scale[n-1]
	}
	for t := n - 2; t >= 0; t-- {
		beta[t] = make([]float64, k)
		for i := 0; i < k; i++ {
			var s float64
			for j := 0; j < k; j++ {
				s += h.Trans[i][j] * h.Emit[j][obs[t+1]] * beta[t+1][j]
			}
			beta[t][i] = s / scale[t]
		}
	}
	return beta
}

// Viterbi returns the most likely hidden state sequence.
func (h *HMM) Viterbi(obs []int) []int {
	if len(obs) == 0 {
		return nil
	}
	k := len(h.Init)
	n := len(obs)
	logp := func(v float64) float64 {
		if v <= 0 {
			return math.Inf(-1)
		}
		return math.Log(v)
	}
	delta := make([][]float64, n)
	back := make([][]int, n)
	delta[0] = make([]float64, k)
	back[0] = make([]int, k)
	for i := 0; i < k; i++ {
		delta[0][i] = logp(h.Init[i]) + logp(h.Emit[i][obs[0]])
	}
	for t := 1; t < n; t++ {
		delta[t] = make([]float64, k)
		back[t] = make([]int, k)
		for j := 0; j < k; j++ {
			best, arg := math.Inf(-1), 0
			for i := 0; i < k; i++ {
				if v := delta[t-1][i] + logp(h.Trans[i][j]); v > best {
					best, arg = v, i
				}
			}
			delta[t][j] = best + logp(h.Emit[j][obs[t]])
			back[t][j] = arg
		}
	}
	best, arg := math.Inf(-1), 0
	for i := 0; i < k; i++ {
		if delta[n-1][i] > best {
			best, arg = delta[n-1][i], i
		}
	}
	path := make([]int, n)
	path[n-1] = arg
	for t := n - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path
}

// Fit runs Baum-Welch EM over a set of observation sequences until the
// total log-likelihood improves by less than tol or maxIter is reached.
// It returns the final total log-likelihood.
func (h *HMM) Fit(seqs [][]int, maxIter int, tol float64) (float64, error) {
	if len(seqs) == 0 {
		return 0, errors.New("gaze: no training sequences")
	}
	if err := h.Validate(); err != nil {
		return 0, err
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	if tol <= 0 {
		tol = 1e-4
	}
	k := len(h.Init)
	m := len(h.Emit[0])

	prevLL := math.Inf(-1)
	var totalLL float64
	for iter := 0; iter < maxIter; iter++ {
		initAcc := make([]float64, k)
		transNum := make([][]float64, k)
		transDen := make([]float64, k)
		emitNum := make([][]float64, k)
		emitDen := make([]float64, k)
		for i := 0; i < k; i++ {
			transNum[i] = make([]float64, k)
			emitNum[i] = make([]float64, m)
		}

		totalLL = 0
		for _, obs := range seqs {
			if len(obs) == 0 {
				continue
			}
			alpha, scale, ll := h.forward(obs)
			beta := h.backward(obs, scale)
			totalLL += ll

			// State posteriors.
			n := len(obs)
			gamma := make([][]float64, n)
			for t := 0; t < n; t++ {
				gamma[t] = make([]float64, k)
				var z float64
				for i := 0; i < k; i++ {
					gamma[t][i] = alpha[t][i] * beta[t][i]
					z += gamma[t][i]
				}
				if z > 0 {
					for i := 0; i < k; i++ {
						gamma[t][i] /= z
					}
				}
			}
			for i := 0; i < k; i++ {
				initAcc[i] += gamma[0][i]
				for t := 0; t < n; t++ {
					emitNum[i][obs[t]] += gamma[t][i]
					emitDen[i] += gamma[t][i]
					if t < n-1 {
						transDen[i] += gamma[t][i]
					}
				}
			}
			// Transition posteriors xi.
			for t := 0; t < n-1; t++ {
				var z float64
				xi := make([][]float64, k)
				for i := 0; i < k; i++ {
					xi[i] = make([]float64, k)
					for j := 0; j < k; j++ {
						xi[i][j] = alpha[t][i] * h.Trans[i][j] * h.Emit[j][obs[t+1]] * beta[t+1][j]
						z += xi[i][j]
					}
				}
				if z > 0 {
					for i := 0; i < k; i++ {
						for j := 0; j < k; j++ {
							transNum[i][j] += xi[i][j] / z
						}
					}
				}
			}
		}

		// M-step.
		var initZ float64
		for i := 0; i < k; i++ {
			initZ += initAcc[i]
		}
		for i := 0; i < k; i++ {
			if initZ > 0 {
				h.Init[i] = initAcc[i] / initZ
			}
			if transDen[i] > 0 {
				for j := 0; j < k; j++ {
					h.Trans[i][j] = transNum[i][j] / transDen[i]
				}
			}
			if emitDen[i] > 0 {
				for o := 0; o < m; o++ {
					h.Emit[i][o] = emitNum[i][o] / emitDen[i]
				}
			}
		}

		if totalLL-prevLL < tol && iter > 0 {
			break
		}
		prevLL = totalLL
	}
	return totalLL, nil
}
