package load

import (
	"fmt"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/ghn"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// NewSyntheticController builds a controller whose serving path is real —
// decode, Task Checker, GHN embed (fast path + embedding cache), regressor
// eval — but whose model quality is irrelevant: the GHN keeps its seeded
// random initialization and the linear regressor is fitted on synthetic
// points of the right dimensionality. Construction costs milliseconds
// instead of an offline training run, which is what lets `make loadbench`
// and the drain tests stand up a live server per invocation. Predictions
// are numerically meaningless; their latency profile is the thing under
// measurement.
func NewSyntheticController(seed int64, datasets ...string) (*core.Controller, error) {
	if len(datasets) == 0 {
		datasets = []string{"cifar10"}
	}
	engines := make([]*core.InferenceEngine, len(datasets))
	for i, ds := range datasets {
		g := ghn.New(ghn.DefaultConfig(), tensor.NewRNG(seed))
		reg, err := syntheticRegressor(seed+int64(i), g.EmbeddingDim()+len(cluster.FeatureNames()))
		if err != nil {
			return nil, err
		}
		engines[i] = core.NewInferenceEngine(ds, g, reg)
	}
	ctrl := core.NewController(core.NewGHNRegistry(), engines...)
	// Admission cap low enough that oversized-scenario bodies stay cheap
	// to generate (DefaultOversizedTarget), batch cap at the default.
	ctrl.SetLimits(DefaultOversizedTarget, 0)
	return ctrl, nil
}

// syntheticRegressor fits a ridge regression on random points of the given
// feature dimensionality — the cheapest fitted model that makes
// engine.Predict succeed end to end.
func syntheticRegressor(seed int64, dim int) (regress.Regressor, error) {
	rng := tensor.NewRNG(seed)
	n := 2*dim + 8
	x := tensor.NewMatrix(n, dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.Uniform(0, 1))
		}
		y[i] = rng.Uniform(10, 1000)
	}
	m := regress.NewLinearRegression()
	if err := m.Fit(x, y); err != nil {
		return nil, fmt.Errorf("load: synthetic regressor fit: %w", err)
	}
	return m, nil
}
