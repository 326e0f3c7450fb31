package regress

import (
	"fmt"
	"math"
	"sort"

	"predictddl/internal/tensor"
)

// KNNRegressor is k-nearest-neighbors regression in (scaled) feature space —
// for PredictDDL, the GHN embedding concatenated with cluster descriptors.
// Prediction is locally weighted: the k nearest training rows, weighted by
// inverse distance, fit a local ridge model evaluated at the query (classic
// LOESS-style kNN smoothing, which interpolates the scaling curve between
// campaign cluster sizes instead of step-averaging across it). LocalLinear
// false falls back to the plain inverse-distance-weighted target mean. Exact
// matches (distance 0) short-circuit to the mean of the coincident targets.
// Neighbors at equal distance are broken by training-row index, so
// predictions are deterministic regardless of sort internals.
type KNNRegressor struct {
	// K is the neighbor count. 0 selects k by cross-validation over
	// CandidateKs at Fit time.
	K int
	// CandidateKs is the auto-selection search space; nil defaults to
	// {5, 8, 12, 20, 32} when LocalLinear, else {1, 2, 3, 5, 7, 9}.
	CandidateKs []int
	// Folds is the cross-validation fold count for auto-selection
	// (default 5, reduced to fit small training sets).
	Folds int
	// Seed drives the fold shuffling during auto-selection.
	Seed int64
	// LocalLinear fits a distance-weighted ridge model over the k nearest
	// neighbors instead of averaging their targets.
	LocalLinear bool
	// Lambda is the local ridge penalty (default 1e-3; only used when
	// LocalLinear).
	Lambda float64

	scaler  *StandardScaler
	x       *tensor.Matrix // scaled training rows
	y       []float64
	chosenK int
}

// NewKNN returns a locally-weighted kNN regressor that picks k by 5-fold
// cross-validation.
func NewKNN(seed int64) *KNNRegressor {
	return &KNNRegressor{Seed: seed, Folds: 5, LocalLinear: true}
}

// Name implements Regressor.
func (m *KNNRegressor) Name() string { return "knn" }

func (m *KNNRegressor) candidateKs() []int {
	if len(m.CandidateKs) > 0 {
		return m.CandidateKs
	}
	if m.LocalLinear {
		return []int{5, 8, 12, 20, 32}
	}
	return []int{1, 2, 3, 5, 7, 9}
}

// Fit implements Regressor. It memorizes a scaled copy of the training set;
// when K is 0 it first selects k by minimizing mean cross-validated RMSE
// (ties broken toward the smaller, lower-variance k).
func (m *KNNRegressor) Fit(x *tensor.Matrix, y []float64) error {
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	k := m.K
	if k == 0 {
		chosen, err := m.selectK(x, y)
		if err != nil {
			return err
		}
		k = chosen
	}
	if k < 1 {
		return fmt.Errorf("regress: knn needs k ≥ 1, got %d", k)
	}
	if k > x.Rows() {
		k = x.Rows()
	}
	m.scaler = FitScaler(x)
	m.x = m.scaler.TransformMatrix(x)
	m.y = tensor.CloneVec(y)
	m.chosenK = k
	return nil
}

// selectK cross-validates each candidate k on identical folds (the fold RNG
// is re-seeded per candidate) and returns the k with the lowest mean RMSE.
func (m *KNNRegressor) selectK(x *tensor.Matrix, y []float64) (int, error) {
	n := x.Rows()
	folds := m.Folds
	if folds <= 0 {
		folds = 5
	}
	if folds > n {
		folds = n
	}
	if folds < 2 {
		// Too little data to validate; fall back to the smallest candidate.
		return m.candidateKs()[0], nil
	}
	bestK, bestRMSE := 0, math.Inf(1)
	for _, cand := range m.candidateKs() {
		if cand < 1 || cand >= n {
			continue
		}
		cand := cand
		rmses, err := CrossValidate(func() Regressor {
			return &KNNRegressor{K: cand, Seed: m.Seed, LocalLinear: m.LocalLinear, Lambda: m.Lambda}
		}, x, y, folds, tensor.NewRNG(m.Seed))
		if err != nil {
			return 0, fmt.Errorf("regress: knn k-selection (k=%d): %w", cand, err)
		}
		mean := tensor.Mean(rmses)
		if mean < bestRMSE {
			bestRMSE, bestK = mean, cand
		}
	}
	if bestK == 0 {
		return 1, nil
	}
	return bestK, nil
}

// neighbor is one candidate training row during a kNN query: squared
// distance to the query plus the row index used as the deterministic
// tie-break.
type neighbor struct {
	dist float64
	idx  int
}

// Predict implements Regressor.
func (m *KNNRegressor) Predict(features []float64) (float64, error) {
	if m.x == nil {
		return 0, ErrNotFitted
	}
	if len(features) != m.x.Cols() {
		return 0, fmt.Errorf("regress: knn fitted on %d features, got %d", m.x.Cols(), len(features))
	}
	q := m.scaler.Transform(features)
	all := make([]neighbor, m.x.Rows())
	for i := 0; i < m.x.Rows(); i++ {
		row := m.x.Row(i)
		var d float64
		for j, v := range q {
			diff := v - row[j]
			d += diff * diff
		}
		all[i] = neighbor{dist: d, idx: i}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].idx < all[b].idx
	})
	k := m.chosenK
	if k > len(all) {
		k = len(all)
	}
	// Exact matches dominate: average every coincident target.
	if all[0].dist == 0 {
		var sum float64
		var cnt int
		for _, nb := range all {
			if nb.dist != 0 {
				break
			}
			sum += m.y[nb.idx]
			cnt++
		}
		return sum / float64(cnt), nil
	}
	if m.LocalLinear {
		if p, ok := m.localFit(q, all[:k]); ok {
			return p, nil
		}
		// Singular local system (shouldn't happen with λ > 0): fall through
		// to the weighted mean.
	}
	var num, den float64
	for _, nb := range all[:k] {
		w := 1 / math.Sqrt(nb.dist)
		num += w * m.y[nb.idx]
		den += w
	}
	return num / den, nil
}

// localFit solves the distance-weighted ridge system over the selected
// neighbors and evaluates it at the query. Weights are normalized so the
// nearest neighbor gets weight 1, keeping the effective ridge penalty
// comparable across queries.
func (m *KNNRegressor) localFit(q []float64, neighbors []neighbor) (float64, bool) {
	lambda := m.Lambda
	if lambda <= 0 {
		lambda = 1e-3
	}
	wMax := 1 / math.Sqrt(neighbors[0].dist)
	cols := len(q) + 1
	a := tensor.NewMatrix(len(neighbors), cols)
	b := make([]float64, len(neighbors))
	for i, nb := range neighbors {
		sw := math.Sqrt(1 / math.Sqrt(nb.dist) / wMax)
		a.Set(i, 0, sw)
		row := m.x.Row(nb.idx)
		for j, v := range row {
			a.Set(i, j+1, sw*v)
		}
		b[i] = sw * m.y[nb.idx]
	}
	beta, err := tensor.RidgeSolve(a, b, lambda)
	if err != nil {
		return 0, false
	}
	p := beta[0]
	for j, v := range q {
		p += beta[j+1] * v
	}
	return p, true
}
