package regress

import (
	"fmt"

	"predictddl/internal/tensor"
)

// KFold yields k cross-validation splits of [0, n): fold i's indices form
// the test set while the rest train. Indices are shuffled once with rng so
// folds are disjoint and exhaustive.
func KFold(n, k int, rng *tensor.RNG) ([][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("regress: k-fold needs 2 ≤ k ≤ n, got k=%d n=%d", k, n)
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// FoldScore is one fold's held-out error under both leaderboard metrics.
type FoldScore struct {
	// RMSE is the fold's root-mean-square error.
	RMSE float64
	// MAPE is the fold's mean absolute percentage error.
	MAPE float64
}

func complementIndices(n int, exclude []int) []int {
	in := make(map[int]bool, len(exclude))
	for _, idx := range exclude {
		in[idx] = true
	}
	out := make([]int, 0, n-len(exclude))
	for idx := 0; idx < n; idx++ {
		if !in[idx] {
			out = append(out, idx)
		}
	}
	return out
}

// CrossValidate fits a fresh model per fold and returns the per-fold test
// RMSEs — the model-selection primitive behind the paper's "divide the
// data into training and test splits and use the test part to estimate the
// real-world performance" (§III-C).
func CrossValidate(newModel func() Regressor, x *tensor.Matrix, y []float64, k int, rng *tensor.RNG) ([]float64, error) {
	if err := checkTrainingData(x, y); err != nil {
		return nil, err
	}
	folds, err := KFold(x.Rows(), k, rng)
	if err != nil {
		return nil, err
	}
	rmses := make([]float64, k)
	for i, test := range folds {
		xTrain, yTrain := Take(x, y, complementIndices(x.Rows(), test))
		xTest, yTest := Take(x, y, test)
		m := newModel()
		if err := m.Fit(xTrain, yTrain); err != nil {
			return nil, fmt.Errorf("regress: fold %d: %w", i, err)
		}
		pred, err := PredictAll(m, xTest)
		if err != nil {
			return nil, fmt.Errorf("regress: fold %d: %w", i, err)
		}
		rmses[i] = RMSE(pred, yTest)
	}
	return rmses, nil
}
