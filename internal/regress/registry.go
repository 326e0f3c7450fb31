package regress

import (
	"fmt"
	"strings"
)

// FeatureKind says which feature schema a backend consumes.
type FeatureKind int

const (
	// FeatureEmbedding backends train on [GHN embedding ‖ cluster features].
	FeatureEmbedding FeatureKind = iota
	// FeatureAnalytic backends train on the scalar analytic schema
	// (costmodel.AnalyticFeatures): graph FLOPs/params/size plus cluster
	// descriptors, no learned embedding.
	FeatureAnalytic
)

// String implements fmt.Stringer.
func (k FeatureKind) String() string {
	if k == FeatureAnalytic {
		return "analytic"
	}
	return "embedding"
}

// KindOf reports the feature schema a model consumes, unwrapping LogTarget.
func KindOf(m Regressor) FeatureKind {
	switch v := m.(type) {
	case *LogTarget:
		return KindOf(v.Inner)
	case *RooflineRegressor:
		return FeatureAnalytic
	default:
		return FeatureEmbedding
	}
}

// Backend is one registered leaderboard entrant: a named, seeded regressor
// factory plus the feature schema it consumes.
type Backend struct {
	// Name is the stable flag/artifact identifier (e.g. "gb-stumps").
	Name string
	// Description is a one-line summary for -backend help text.
	Description string
	// Kind is the feature schema the backend consumes.
	Kind FeatureKind
	// New builds a fresh, unfitted model. The seed drives any stochastic
	// choices (shuffles, weight init); same seed ⇒ bit-identical fits.
	New func(seed int64) Regressor
}

// Backends returns the registered backends in their fixed leaderboard order.
// The order is part of the artifact contract: leaderboard JSON lists entries
// this way, so appending here is safe and reordering is a breaking change.
func Backends() []Backend {
	return []Backend{
		{
			Name:        "linear",
			Description: "ridge regression on log targets (the serving default)",
			Kind:        FeatureEmbedding,
			New:         func(int64) Regressor { return NewLogTarget(NewLinearRegression()) },
		},
		{
			Name:        "polynomial-2",
			Description: "second-order polynomial ridge regression on log targets",
			Kind:        FeatureEmbedding,
			New:         func(int64) Regressor { return NewLogTarget(NewPolynomialRegression(2)) },
		},
		{
			Name:        "svr-rbf",
			Description: "ε-support-vector regression, RBF kernel (C=100, ε=0.1, γ=0.1)",
			Kind:        FeatureEmbedding,
			New:         func(int64) Regressor { return NewSVR() },
		},
		{
			Name:        "svr-linear",
			Description: "ε-support-vector regression, linear kernel (C=100, ε=0.1)",
			Kind:        FeatureEmbedding,
			New: func(int64) Regressor {
				s := NewSVR()
				s.Kernel = LinearKernel{}
				return s
			},
		},
		{
			Name:        "mlp",
			Description: "3-hidden-neuron perceptron regressor (Adam, 400 epochs)",
			Kind:        FeatureEmbedding,
			New: func(seed int64) Regressor {
				m := NewMLPRegressor(3)
				m.Seed = seed
				return m
			},
		},
		{
			Name:        "knn",
			Description: "distance-weighted k-nearest-neighbors in embedding space on log targets, k by cross-validation",
			Kind:        FeatureEmbedding,
			// Log targets: training times span orders of magnitude across
			// cluster sizes, so averaging neighbors in log space (a weighted
			// geometric mean) is what MAPE actually rewards.
			New: func(seed int64) Regressor { return NewLogTarget(NewKNN(seed)) },
		},
		{
			Name:        "gb-stumps",
			Description: "gradient-boosted depth-1 trees on log targets with shrinkage and validation early stopping",
			Kind:        FeatureEmbedding,
			New:         func(seed int64) Regressor { return NewLogTarget(NewGradientBoostedStumps(seed)) },
		},
		{
			Name:        "roofline",
			Description: "analytical compute+communication floor from the shared cost model (costmodel)",
			Kind:        FeatureAnalytic,
			New:         func(int64) Regressor { return NewRoofline() },
		},
	}
}

// BackendNames returns the registered backend names in leaderboard order.
func BackendNames() []string {
	bs := Backends()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// LookupBackend finds a registered backend by name.
func LookupBackend(name string) (Backend, error) {
	for _, b := range Backends() {
		if b.Name == name {
			return b, nil
		}
	}
	return Backend{}, fmt.Errorf("regress: unknown backend %q (have %s)", name, strings.Join(BackendNames(), ", "))
}

// NewBackend builds a fresh model for the named backend.
func NewBackend(name string, seed int64) (Regressor, error) {
	b, err := LookupBackend(name)
	if err != nil {
		return nil, err
	}
	return b.New(seed), nil
}
