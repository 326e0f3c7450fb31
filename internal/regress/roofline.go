package regress

import (
	"fmt"
	"math"

	"predictddl/internal/costmodel"
	"predictddl/internal/tensor"
)

// RooflineRegressor is the analytical "you must beat this" floor of the
// backend leaderboard. It learns nothing from feature geometry: each
// prediction is reconstructed from costmodel's per-step
// compute/communication/overhead terms applied to the analytic feature
// schema (costmodel.AnalyticFeatures), times a single calibration
// scale fitted as the geometric mean of target/estimate ratios. The scale
// absorbs the per-corpus constants the features cannot see (epochs, dataset
// size, per-server batch); everything the roofline deliberately ignores —
// operation mix, input-pipeline stalls, graph-shape efficiency effects — is
// exactly the signal a learned backend must exploit to beat it.
type RooflineRegressor struct {
	scale        float64
	featureCount int
}

// NewRoofline returns an unfitted roofline baseline.
func NewRoofline() *RooflineRegressor { return &RooflineRegressor{} }

// Name implements Regressor.
func (m *RooflineRegressor) Name() string { return "roofline" }

// analyticIdx caches the schema positions the roofline reads. Resolved by
// name once so a schema reordering cannot silently misroute a feature.
var analyticIdx = struct {
	flops, params, nodes, servers, minGFLOPS, gpus, nic int
}{
	flops:     costmodel.AnalyticIndex("flops"),
	params:    costmodel.AnalyticIndex("params"),
	nodes:     costmodel.AnalyticIndex("num_nodes"),
	servers:   costmodel.AnalyticIndex("num_servers"),
	minGFLOPS: costmodel.AnalyticIndex("min_server_gflops"),
	gpus:      costmodel.AnalyticIndex("num_gpus"),
	nic:       costmodel.AnalyticIndex("min_nic_gbps"),
}

// rawEstimate reconstructs per-server step time from one analytic feature
// row: slowest-server compute at the cost model's base efficiency, plus the
// exposed ring all-reduce and per-iteration overhead, divided by the server
// count (iteration count per epoch shrinks linearly with data parallelism;
// the dataset-size constant lands in the fitted scale).
func (m *RooflineRegressor) rawEstimate(f []float64) (float64, error) {
	servers := int(f[analyticIdx.servers])
	if servers < 1 {
		return 0, fmt.Errorf("regress: roofline needs ≥ 1 server, got %g", f[analyticIdx.servers])
	}
	minGF := f[analyticIdx.minGFLOPS]
	if minGF <= 0 {
		return 0, fmt.Errorf("regress: roofline needs positive min_server_gflops, got %g", minGF)
	}
	compute := costmodel.StepCompute(f[analyticIdx.flops], costmodel.BatchPerServer, minGF, costmodel.BaseEfficiency(f[analyticIdx.gpus] > 0))
	comm := costmodel.ExposedComm(compute, servers, 4*f[analyticIdx.params], f[analyticIdx.nic])
	overhead := costmodel.Overhead(int(f[analyticIdx.nodes]), servers)
	return (compute + comm + overhead) / float64(servers), nil
}

// Fit implements Regressor. x must use the analytic feature schema
// (costmodel.AnalyticFeatures order); targets must be positive.
func (m *RooflineRegressor) Fit(x *tensor.Matrix, y []float64) error {
	if err := checkTrainingData(x, y); err != nil {
		return err
	}
	if x.Cols() != costmodel.NumAnalyticFeatures() {
		return fmt.Errorf("regress: roofline needs the %d-wide analytic feature schema, got %d columns", costmodel.NumAnalyticFeatures(), x.Cols())
	}
	var logSum float64
	for i := 0; i < x.Rows(); i++ {
		if y[i] <= 0 {
			return fmt.Errorf("regress: roofline needs positive targets, got %g at row %d", y[i], i)
		}
		raw, err := m.rawEstimate(x.Row(i))
		if err != nil {
			return fmt.Errorf("regress: roofline row %d: %w", i, err)
		}
		if raw <= 0 {
			return fmt.Errorf("regress: roofline row %d: non-positive cost estimate %g", i, raw)
		}
		logSum += math.Log(y[i] / raw)
	}
	m.scale = math.Exp(logSum / float64(x.Rows()))
	m.featureCount = x.Cols()
	return nil
}

// Predict implements Regressor.
func (m *RooflineRegressor) Predict(features []float64) (float64, error) {
	if m.featureCount == 0 {
		return 0, ErrNotFitted
	}
	if len(features) != m.featureCount {
		return 0, fmt.Errorf("regress: roofline fitted on %d features, got %d", m.featureCount, len(features))
	}
	raw, err := m.rawEstimate(features)
	if err != nil {
		return 0, err
	}
	return m.scale * raw, nil
}
