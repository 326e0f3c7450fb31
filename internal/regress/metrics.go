package regress

import (
	"fmt"
	"math"
)

// RMSE returns the root-mean-square error between predictions and targets —
// the metric of the paper's Fig. 1–2 motivation study.
func RMSE(pred, actual []float64) float64 {
	mustSameLen(pred, actual)
	var s float64
	for i, p := range pred {
		d := p - actual[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// RelativeRatio returns mean(predicted/actual), the paper's headline
// presentation ("closer to 1 is better", Fig. 6/9–12). Targets must be
// positive.
func RelativeRatio(pred, actual []float64) float64 {
	mustSameLen(pred, actual)
	var s float64
	for i, p := range pred {
		s += p / actual[i]
	}
	return s / float64(len(pred))
}

// MeanRelativeError returns mean(|predicted − actual| / actual), the "8%
// average relative error" metric of §IV. Targets must be positive.
func MeanRelativeError(pred, actual []float64) float64 {
	mustSameLen(pred, actual)
	var s float64
	for i, p := range pred {
		s += math.Abs(p-actual[i]) / actual[i]
	}
	return s / float64(len(pred))
}

// MAPE returns the mean absolute percentage error,
// mean(|predicted − actual| / actual) — the leaderboard's ranking metric.
// Unlike MeanRelativeError it refuses non-positive targets instead of
// silently producing ±Inf or NaN, so a bad fold surfaces as a diagnosable
// error rather than a poisoned score.
func MAPE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) || len(pred) == 0 {
		return 0, fmt.Errorf("regress: MAPE over mismatched slices %d vs %d", len(pred), len(actual))
	}
	var s float64
	for i, p := range pred {
		if actual[i] <= 0 {
			return 0, fmt.Errorf("regress: MAPE needs positive targets, got %g at index %d", actual[i], i)
		}
		s += math.Abs(p-actual[i]) / actual[i]
	}
	return s / float64(len(pred)), nil
}

func mustSameLen(pred, actual []float64) {
	if len(pred) != len(actual) || len(pred) == 0 {
		panic(fmt.Sprintf("regress: metric over mismatched slices %d vs %d", len(pred), len(actual)))
	}
}
