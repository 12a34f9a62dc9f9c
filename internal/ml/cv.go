package ml

import (
	"fmt"
	"math/rand"
)

// Fold is one train/test split of a k-fold partition, expressed as index
// sets into the original dataset.
type Fold struct {
	Train, Test []int
}

// KFold partitions n example indices into k shuffled folds, matching the
// paper's "standard 10-fold cross validation experiments, where in each
// cross validation iteration 90% instances are used for training and the
// rest 10% for testing". Deterministic given seed.
func KFold(n, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("ml: k-fold needs k >= 2, got %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("ml: cannot split %d examples into %d folds", n, k)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		// Fold f owns positions f, f+k, f+2k, ... of the permutation.
		for pos := f; pos < n; pos += k {
			folds[f].Test = append(folds[f].Test, perm[pos])
		}
	}
	for f := 0; f < k; f++ {
		for g := 0; g < k; g++ {
			if g != f {
				folds[f].Train = append(folds[f].Train, folds[g].Test...)
			}
		}
	}
	return folds, nil
}
