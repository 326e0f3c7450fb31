package ernest

import (
	"errors"
	"fmt"
	"math"

	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// Features returns Ernest's scaling-term feature map for a run on m
// machines: [1, 1/m, log m, m].
func Features(machines int) []float64 {
	m := float64(machines)
	return []float64{1, 1 / m, math.Log(m), m}
}

// Model is one fitted Ernest predictor. Ernest is a black-box model: it
// knows nothing about the DNN, only the machine count, so a Model is only
// valid for the single workload whose measurements trained it.
type Model struct {
	theta  []float64
	fitted bool
}

// Fit trains the model on measured (machines, seconds) pairs with NNLS.
// At least two distinct machine counts are required.
func (e *Model) Fit(machines []int, seconds []float64) error {
	if len(machines) != len(seconds) {
		return fmt.Errorf("ernest: %d configs but %d measurements", len(machines), len(seconds))
	}
	if len(machines) < 2 {
		return errors.New("ernest: need at least 2 measurements")
	}
	distinct := map[int]bool{}
	for i, m := range machines {
		if m < 1 {
			return fmt.Errorf("ernest: invalid machine count %d", m)
		}
		if seconds[i] <= 0 {
			return fmt.Errorf("ernest: non-positive measurement %g", seconds[i])
		}
		distinct[m] = true
	}
	if len(distinct) < 2 {
		return errors.New("ernest: need measurements from at least 2 distinct machine counts")
	}
	design := tensor.NewMatrix(len(machines), 4)
	for i, m := range machines {
		design.SetRow(i, Features(m))
	}
	theta, err := NNLS(design, seconds)
	if err != nil {
		return fmt.Errorf("ernest: fit: %w", err)
	}
	e.theta = theta
	e.fitted = true
	return nil
}

// FitPoints trains from simulator campaign points (all must belong to the
// same workload for the model to mean anything; callers enforce that).
func (e *Model) FitPoints(points []simulator.DataPoint) error {
	machines := make([]int, len(points))
	seconds := make([]float64, len(points))
	for i, p := range points {
		machines[i] = p.NumServers
		seconds[i] = p.Seconds
	}
	return e.Fit(machines, seconds)
}

// Predict estimates the training time on the given machine count.
func (e *Model) Predict(machines int) (float64, error) {
	if !e.fitted {
		return 0, errors.New("ernest: model is not fitted")
	}
	if machines < 1 {
		return 0, fmt.Errorf("ernest: invalid machine count %d", machines)
	}
	return tensor.Dot(e.theta, Features(machines)), nil
}
