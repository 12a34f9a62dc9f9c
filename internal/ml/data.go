// Package ml provides the machine-learning substrate for the snippet
// classifier: sparse instances over dense feature ids (the classifier
// numbers its features with textproc.Vocab), logistic regression with
// L1 regularisation (batch proximal gradient descent), binary
// classification metrics, and the k-fold splits that
// classifier.CrossValidate runs. Stdlib only.
package ml

import (
	"fmt"
	"sort"
)

// Feature is one (id, value) coordinate of a sparse vector.
type Feature struct {
	ID  int
	Val float64
}

// Instance is one training or test example: a sparse feature vector with
// a binary label (true = positive class).
type Instance struct {
	Features []Feature
	Label    bool
}

// Canonicalize sorts the features by id and merges duplicates by summing
// their values, returning the instance for chaining.
func (in *Instance) Canonicalize() *Instance {
	sort.Slice(in.Features, func(i, j int) bool { return in.Features[i].ID < in.Features[j].ID })
	out := in.Features[:0]
	for _, f := range in.Features {
		if n := len(out); n > 0 && out[n-1].ID == f.ID {
			out[n-1].Val += f.Val
		} else {
			out = append(out, f)
		}
	}
	in.Features = out
	return in
}

// Dot returns the dot product of the instance with a dense weight vector.
// Feature ids beyond the weight vector contribute zero, so a model can
// score instances containing features it has never seen.
func (in *Instance) Dot(w []float64) float64 {
	var s float64
	for _, f := range in.Features {
		if f.ID < len(w) {
			s += w[f.ID] * f.Val
		}
	}
	return s
}

// MaxFeatureID returns the largest feature id in the dataset, or -1 for
// an empty dataset.
func MaxFeatureID(data []Instance) int {
	max := -1
	for _, in := range data {
		for _, f := range in.Features {
			if f.ID > max {
				max = f.ID
			}
		}
	}
	return max
}

// CheckDataset validates that feature ids are non-negative and values are
// finite; it returns the first problem found.
func CheckDataset(data []Instance) error {
	for i, in := range data {
		for _, f := range in.Features {
			if f.ID < 0 {
				return fmt.Errorf("ml: instance %d has negative feature id %d", i, f.ID)
			}
			if isBad(f.Val) {
				return fmt.Errorf("ml: instance %d has non-finite value for feature %d", i, f.ID)
			}
		}
	}
	return nil
}

func isBad(v float64) bool { return v != v || v > 1e300 || v < -1e300 }
