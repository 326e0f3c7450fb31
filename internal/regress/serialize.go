package regress

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"predictddl/internal/costmodel"
	"predictddl/internal/tensor"
)

// Serialization uses explicit snapshot structs (gob cannot see unexported
// fields) plus a type-tag envelope so a Regressor can be saved and loaded
// through the interface. Load validates every decoded snapshot's internal
// consistency (dimensions, index bounds, scale sanity) so a corrupt blob
// errors instead of panicking rows deep inside a later Predict. Fitted SVR
// and MLP models are intentionally not serializable: grid-searched models
// are cheap to refit, and neither wins a leaderboard slot that needs
// persisting.

// scalerSnapshot mirrors StandardScaler.
type scalerSnapshot struct{ Mean, Std []float64 }

func snapshotScaler(s *StandardScaler) *scalerSnapshot {
	if s == nil {
		return nil
	}
	return &scalerSnapshot{Mean: tensor.CloneVec(s.mean), Std: tensor.CloneVec(s.std)}
}

func (s *scalerSnapshot) restore() *StandardScaler {
	if s == nil {
		return nil
	}
	return &StandardScaler{mean: s.Mean, std: s.Std}
}

// linearSnapshot mirrors LinearRegression.
type linearSnapshot struct {
	Lambda float64
	Scaler *scalerSnapshot
	Coef   []float64
}

// polySnapshot mirrors PolynomialRegression.
type polySnapshot struct {
	Degree    int
	Lambda    float64
	InputDim  int
	Linear    *linearSnapshot
	PreScaler *scalerSnapshot
}

// knnSnapshot mirrors KNNRegressor.
type knnSnapshot struct {
	K, ChosenK  int
	Folds       int
	Seed        int64
	CandidateKs []int
	LocalLinear bool
	Lambda      float64
	Scaler      *scalerSnapshot
	Rows, Cols  int
	X           []float64 // row-major scaled training matrix
	Y           []float64
}

// gbSnapshot mirrors GradientBoostedStumps.
type gbSnapshot struct {
	Rounds       int
	Shrinkage    float64
	ValFrac      float64
	Patience     int
	Seed         int64
	Base         float64
	FeatureCount int
	Stumps       []stump
}

// rooflineSnapshot mirrors RooflineRegressor.
type rooflineSnapshot struct {
	Scale        float64
	FeatureCount int
}

// envelope wraps any snapshot with its type tag.
type envelope struct {
	Kind string
	Blob []byte
}

const (
	kindLinear    = "linear"
	kindPoly      = "polynomial"
	kindLogTarget = "log-target"
	kindKNN       = "knn"
	kindGBStumps  = "gb-stumps"
	kindRoofline  = "roofline"
)

func encodeBlob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeBlob(blob []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(blob)).Decode(v)
}

// Save serializes a fitted regressor to w. Supported: LinearRegression,
// PolynomialRegression, KNNRegressor, GradientBoostedStumps,
// RooflineRegressor, and LogTarget wrappers over any of those.
func Save(w io.Writer, m Regressor) error {
	env, err := toEnvelope(m)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("regress: save: %w", err)
	}
	return nil
}

func toEnvelope(m Regressor) (*envelope, error) {
	switch v := m.(type) {
	case *LinearRegression:
		blob, err := encodeBlob(linearSnapshot{Lambda: v.Lambda, Scaler: snapshotScaler(v.scaler), Coef: v.coef})
		if err != nil {
			return nil, fmt.Errorf("regress: save linear: %w", err)
		}
		return &envelope{Kind: kindLinear, Blob: blob}, nil
	case *PolynomialRegression:
		var lin *linearSnapshot
		if v.linear != nil {
			lin = &linearSnapshot{Lambda: v.linear.Lambda, Scaler: snapshotScaler(v.linear.scaler), Coef: v.linear.coef}
		}
		blob, err := encodeBlob(polySnapshot{
			Degree: v.Degree, Lambda: v.Lambda, InputDim: v.inputDim,
			Linear: lin, PreScaler: snapshotScaler(v.preScaler),
		})
		if err != nil {
			return nil, fmt.Errorf("regress: save polynomial: %w", err)
		}
		return &envelope{Kind: kindPoly, Blob: blob}, nil
	case *KNNRegressor:
		if v.x == nil {
			return nil, fmt.Errorf("regress: save knn: model is not fitted")
		}
		blob, err := encodeBlob(knnSnapshot{
			K: v.K, ChosenK: v.chosenK, Folds: v.Folds, Seed: v.Seed,
			CandidateKs: append([]int(nil), v.CandidateKs...),
			LocalLinear: v.LocalLinear, Lambda: v.Lambda,
			Scaler: snapshotScaler(v.scaler),
			Rows:   v.x.Rows(), Cols: v.x.Cols(),
			X: tensor.CloneVec(v.x.Data()), Y: tensor.CloneVec(v.y),
		})
		if err != nil {
			return nil, fmt.Errorf("regress: save knn: %w", err)
		}
		return &envelope{Kind: kindKNN, Blob: blob}, nil
	case *GradientBoostedStumps:
		blob, err := encodeBlob(gbSnapshot{
			Rounds: v.Rounds, Shrinkage: v.Shrinkage, ValFrac: v.ValFrac,
			Patience: v.Patience, Seed: v.Seed,
			Base: v.base, FeatureCount: v.featureCount,
			Stumps: append([]stump(nil), v.stumps...),
		})
		if err != nil {
			return nil, fmt.Errorf("regress: save gb-stumps: %w", err)
		}
		return &envelope{Kind: kindGBStumps, Blob: blob}, nil
	case *RooflineRegressor:
		blob, err := encodeBlob(rooflineSnapshot{Scale: v.scale, FeatureCount: v.featureCount})
		if err != nil {
			return nil, fmt.Errorf("regress: save roofline: %w", err)
		}
		return &envelope{Kind: kindRoofline, Blob: blob}, nil
	case *LogTarget:
		inner, err := toEnvelope(v.Inner)
		if err != nil {
			return nil, err
		}
		blob, err := encodeBlob(inner)
		if err != nil {
			return nil, fmt.Errorf("regress: save log-target: %w", err)
		}
		return &envelope{Kind: kindLogTarget, Blob: blob}, nil
	default:
		return nil, fmt.Errorf("regress: cannot serialize %T (only linear, polynomial, knn, gb-stumps, roofline, and log-target wrappers persist)", m)
	}
}

// Load deserializes a regressor written by Save.
func Load(r io.Reader) (Regressor, error) {
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("regress: load: %w", err)
	}
	return fromEnvelope(&env)
}

func fromEnvelope(env *envelope) (Regressor, error) {
	switch env.Kind {
	case kindLinear:
		var s linearSnapshot
		if err := decodeBlob(env.Blob, &s); err != nil {
			return nil, fmt.Errorf("regress: load linear: %w", err)
		}
		return &LinearRegression{Lambda: s.Lambda, scaler: s.Scaler.restore(), coef: s.Coef}, nil
	case kindPoly:
		var s polySnapshot
		if err := decodeBlob(env.Blob, &s); err != nil {
			return nil, fmt.Errorf("regress: load polynomial: %w", err)
		}
		// PolynomialFeatures panics on a degree Fit would have refused.
		if s.Linear != nil && s.Degree < 1 {
			return nil, fmt.Errorf("regress: load polynomial: degree %d < 1", s.Degree)
		}
		p := &PolynomialRegression{Degree: s.Degree, Lambda: s.Lambda, inputDim: s.InputDim, preScaler: s.PreScaler.restore()}
		if s.Linear != nil {
			p.linear = &LinearRegression{Lambda: s.Linear.Lambda, scaler: s.Linear.Scaler.restore(), coef: s.Linear.Coef}
		}
		return p, nil
	case kindKNN:
		var s knnSnapshot
		if err := decodeBlob(env.Blob, &s); err != nil {
			return nil, fmt.Errorf("regress: load knn: %w", err)
		}
		// A corrupt blob must error here, not panic inside Predict later.
		if s.Rows < 1 || s.Cols < 1 || s.Rows*s.Cols != len(s.X) || len(s.Y) != s.Rows {
			return nil, fmt.Errorf("regress: load knn: inconsistent dimensions (%d×%d, %d values, %d targets)", s.Rows, s.Cols, len(s.X), len(s.Y))
		}
		if s.ChosenK < 1 || s.ChosenK > s.Rows {
			return nil, fmt.Errorf("regress: load knn: chosen k %d outside [1, %d]", s.ChosenK, s.Rows)
		}
		if s.Scaler == nil || len(s.Scaler.Mean) != s.Cols || len(s.Scaler.Std) != s.Cols {
			return nil, fmt.Errorf("regress: load knn: scaler does not match %d columns", s.Cols)
		}
		x, err := tensor.NewMatrixFrom(s.Rows, s.Cols, s.X)
		if err != nil {
			return nil, fmt.Errorf("regress: load knn: %w", err)
		}
		return &KNNRegressor{
			K: s.K, CandidateKs: s.CandidateKs, Folds: s.Folds, Seed: s.Seed,
			LocalLinear: s.LocalLinear, Lambda: s.Lambda,
			scaler: s.Scaler.restore(), x: x, y: s.Y, chosenK: s.ChosenK,
		}, nil
	case kindGBStumps:
		var s gbSnapshot
		if err := decodeBlob(env.Blob, &s); err != nil {
			return nil, fmt.Errorf("regress: load gb-stumps: %w", err)
		}
		if s.FeatureCount < 1 {
			return nil, fmt.Errorf("regress: load gb-stumps: feature count %d < 1", s.FeatureCount)
		}
		for i, st := range s.Stumps {
			if st.Feature < 0 || st.Feature >= s.FeatureCount {
				return nil, fmt.Errorf("regress: load gb-stumps: stump %d splits feature %d outside [0, %d)", i, st.Feature, s.FeatureCount)
			}
		}
		return &GradientBoostedStumps{
			Rounds: s.Rounds, Shrinkage: s.Shrinkage, ValFrac: s.ValFrac,
			Patience: s.Patience, Seed: s.Seed,
			base: s.Base, featureCount: s.FeatureCount, stumps: s.Stumps,
		}, nil
	case kindRoofline:
		var s rooflineSnapshot
		if err := decodeBlob(env.Blob, &s); err != nil {
			return nil, fmt.Errorf("regress: load roofline: %w", err)
		}
		if s.FeatureCount != costmodel.NumAnalyticFeatures() {
			return nil, fmt.Errorf("regress: load roofline: fitted on %d features, analytic schema has %d", s.FeatureCount, costmodel.NumAnalyticFeatures())
		}
		if s.Scale <= 0 || math.IsInf(s.Scale, 0) || math.IsNaN(s.Scale) {
			return nil, fmt.Errorf("regress: load roofline: invalid calibration scale %g", s.Scale)
		}
		return &RooflineRegressor{scale: s.Scale, featureCount: s.FeatureCount}, nil
	case kindLogTarget:
		var inner envelope
		if err := decodeBlob(env.Blob, &inner); err != nil {
			return nil, fmt.Errorf("regress: load log-target: %w", err)
		}
		m, err := fromEnvelope(&inner)
		if err != nil {
			return nil, err
		}
		return &LogTarget{Inner: m}, nil
	default:
		return nil, fmt.Errorf("regress: unknown serialized kind %q", env.Kind)
	}
}
