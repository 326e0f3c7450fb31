package regress

import (
	"fmt"
	"math"
	"sort"

	"predictddl/internal/tensor"
)

// stump is one depth-1 regression tree. Left/Right are leaf deltas with the
// shrinkage already folded in, so Predict is a pure comparison + add.
type stump struct {
	Feature   int
	Threshold float64
	Left      float64 // value when feature < Threshold
	Right     float64 // value when feature ≥ Threshold
}

// GradientBoostedStumps is gradient boosting with depth-1 regression trees
// under squared loss: each round fits a stump to the current residuals via
// an exact greedy split search (prefix sums over per-feature sort orders),
// applies shrinkage, and updates the residuals. A held-out validation split
// drives early stopping on MAPE (RMSE when any validation target is
// non-positive). The split search scans features and split positions in a
// fixed ascending order and keeps only strictly better splits, so training
// is bit-deterministic for a given seed.
type GradientBoostedStumps struct {
	// Rounds caps the boosting iterations (default 1000).
	Rounds int
	// Shrinkage is the learning rate applied to every leaf (default 0.3).
	Shrinkage float64
	// ValFrac is the fraction of rows held out for early stopping
	// (default 0.2; validation is skipped below 10 rows).
	ValFrac float64
	// Patience is how many non-improving rounds to tolerate before
	// stopping (default 50).
	Patience int
	// Seed drives the train/validation shuffle.
	Seed int64

	base         float64
	stumps       []stump
	featureCount int
}

// NewGradientBoostedStumps returns a boosted-stumps regressor with the
// calibrated defaults.
func NewGradientBoostedStumps(seed int64) *GradientBoostedStumps {
	return &GradientBoostedStumps{Rounds: 1000, Shrinkage: 0.3, ValFrac: 0.2, Patience: 50, Seed: seed}
}

// Name implements Regressor.
func (m *GradientBoostedStumps) Name() string { return "gb-stumps" }

func (m *GradientBoostedStumps) withDefaults() (rounds int, shrinkage, valFrac float64, patience int) {
	rounds, shrinkage, valFrac, patience = m.Rounds, m.Shrinkage, m.ValFrac, m.Patience
	if rounds <= 0 {
		rounds = 1000
	}
	if shrinkage <= 0 || shrinkage > 1 {
		shrinkage = 0.3
	}
	if valFrac <= 0 || valFrac >= 1 {
		valFrac = 0.2
	}
	if patience <= 0 {
		patience = 50
	}
	return
}

// Fit implements Regressor.
func (m *GradientBoostedStumps) Fit(x *tensor.Matrix, y []float64) error {
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	rounds, shrinkage, valFrac, patience := m.withDefaults()

	trainIdx := make([]int, x.Rows())
	for i := range trainIdx {
		trainIdx[i] = i
	}
	var valIdx []int
	if x.Rows() >= 10 {
		trainIdx, valIdx = TrainTestSplit(x.Rows(), 1-valFrac, tensor.NewRNG(m.Seed))
	}
	xt, yt := Take(x, y, trainIdx)
	var xv *tensor.Matrix
	var yv []float64
	if len(valIdx) > 0 {
		xv, yv = Take(x, y, valIdx)
	}
	valMAPE := true
	for _, v := range yv {
		if v <= 0 {
			valMAPE = false
			break
		}
	}

	n, cols := xt.Rows(), xt.Cols()
	// Per-feature ascending sort order, computed once; ties break on row
	// index for determinism.
	order := make([][]int, cols)
	for j := 0; j < cols; j++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		j := j
		sort.Slice(idx, func(a, b int) bool {
			va, vb := xt.At(idx[a], j), xt.At(idx[b], j)
			if va != vb {
				return va < vb
			}
			return idx[a] < idx[b]
		})
		order[j] = idx
	}

	m.featureCount = cols
	m.base = tensor.Mean(yt)
	m.stumps = nil

	resid := make([]float64, n)
	for i, v := range yt {
		resid[i] = v - m.base
	}
	valPred := make([]float64, len(yv))
	for i := range valPred {
		valPred[i] = m.base
	}

	bestScore := math.Inf(1)
	bestLen := 0
	sinceBest := 0
	for round := 0; round < rounds; round++ {
		st, ok := bestStump(xt, resid, order)
		if !ok {
			break // residuals are constant per feature order; nothing to split
		}
		st.Left *= shrinkage
		st.Right *= shrinkage
		m.stumps = append(m.stumps, st)
		for i := 0; i < n; i++ {
			if xt.At(i, st.Feature) < st.Threshold {
				resid[i] -= st.Left
			} else {
				resid[i] -= st.Right
			}
		}
		if xv == nil {
			continue
		}
		for i := range valPred {
			if xv.At(i, st.Feature) < st.Threshold {
				valPred[i] += st.Left
			} else {
				valPred[i] += st.Right
			}
		}
		score := validationScore(valPred, yv, valMAPE)
		if score < bestScore {
			bestScore, bestLen, sinceBest = score, len(m.stumps), 0
		} else {
			sinceBest++
			if sinceBest >= patience {
				break
			}
		}
	}
	if xv != nil {
		m.stumps = m.stumps[:bestLen]
	}
	return nil
}

func validationScore(pred, y []float64, useMAPE bool) float64 {
	if useMAPE {
		s, err := MAPE(pred, y)
		if err == nil {
			return s
		}
	}
	return RMSE(pred, y)
}

// bestStump performs the exact greedy split search: for each feature in
// ascending index order it walks the precomputed sort order maintaining
// prefix sums of the residuals, scoring every boundary between distinct
// feature values. Only strictly better SSE reductions replace the incumbent,
// so the (feature, position) scan order fixes all ties.
func bestStump(x *tensor.Matrix, resid []float64, order [][]int) (stump, bool) {
	n := len(resid)
	var total float64
	for _, r := range resid {
		total += r
	}
	var best stump
	bestGain := 0.0
	found := false
	for j := range order {
		idx := order[j]
		var leftSum float64
		for pos := 0; pos < n-1; pos++ {
			leftSum += resid[idx[pos]]
			cur, next := x.At(idx[pos], j), x.At(idx[pos+1], j)
			if cur == next {
				continue // not a valid boundary
			}
			nl := float64(pos + 1)
			nr := float64(n - pos - 1)
			rightSum := total - leftSum
			// SSE reduction of splitting here vs a single mean leaf.
			gain := leftSum*leftSum/nl + rightSum*rightSum/nr - total*total/float64(n)
			if gain > bestGain {
				bestGain = gain
				best = stump{
					Feature:   j,
					Threshold: cur + (next-cur)/2,
					Left:      leftSum / nl,
					Right:     rightSum / nr,
				}
				found = true
			}
		}
	}
	return best, found
}

// Predict implements Regressor.
func (m *GradientBoostedStumps) Predict(features []float64) (float64, error) {
	if m.featureCount == 0 {
		return 0, ErrNotFitted
	}
	if len(features) != m.featureCount {
		return 0, fmt.Errorf("regress: gb-stumps fitted on %d features, got %d", m.featureCount, len(features))
	}
	out := m.base
	for _, st := range m.stumps {
		if features[st.Feature] < st.Threshold {
			out += st.Left
		} else {
			out += st.Right
		}
	}
	return out, nil
}
