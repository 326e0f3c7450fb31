package regress

import (
	"math"
	"strings"
	"testing"

	"predictddl/internal/tensor"
)

func TestKNNExactMatchAveragesCoincidentTargets(t *testing.T) {
	x, err := tensor.NewMatrixFrom(4, 2, []float64{
		0, 0,
		0, 0,
		5, 5,
		9, 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{2, 4, 10, 20}
	m := &KNNRegressor{K: 3}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("exact-match prediction = %v, want mean(2, 4) = 3", got)
	}
}

func TestKNNLocalLinearInterpolatesSlope(t *testing.T) {
	// Targets are an exact plane. A local ridge over the neighbors recovers
	// it almost exactly; plain neighbor averaging cannot (it is constant
	// between training rows), so this pins the LOESS behavior that lets kNN
	// track the cluster-size scaling curve.
	rng := tensor.NewRNG(11)
	plane := func(v []float64) float64 { return 20 + 4*v[0] - 3*v[1] }
	x, y := synthData(rng, 80, 2, 0, plane)
	local := &KNNRegressor{K: 16, LocalLinear: true}
	flat := &KNNRegressor{K: 16}
	if err := local.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := flat.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := []float64{0.37, -0.81}
	want := plane(q)
	pl, err := local.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := flat.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl-want) > 0.1 {
		t.Fatalf("local-linear prediction %v misses plane value %v", pl, want)
	}
	if math.Abs(pl-want) >= math.Abs(pf-want)/5 {
		t.Fatalf("local-linear error %v not ≪ weighted-mean error %v on planar data", math.Abs(pl-want), math.Abs(pf-want))
	}
}

func TestKNNAutoSelectsK(t *testing.T) {
	rng := tensor.NewRNG(5)
	x, y := synthData(rng, 60, 3, 0.1, func(v []float64) float64 { return 10 + v[0] + v[1] })
	m := NewKNN(1)
	if m.chosenK != 0 {
		t.Fatal("chosenK non-zero before Fit")
	}
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	k := m.chosenK
	if k < 1 || k > x.Rows() {
		t.Fatalf("chosen k = %d outside [1, %d]", k, x.Rows())
	}
	found := false
	for _, cand := range m.candidateKs() {
		if cand == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("chosen k = %d not among candidates %v", k, m.candidateKs())
	}
}

func TestKNNCapsKAtTrainingSize(t *testing.T) {
	x, _ := tensor.NewMatrixFrom(3, 1, []float64{1, 2, 3})
	m := &KNNRegressor{K: 10}
	if err := m.Fit(x, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.chosenK != 3 {
		t.Fatalf("k = %d, want capped at 3 rows", m.chosenK)
	}
	if _, err := m.Predict([]float64{1.5}); err != nil {
		t.Fatal(err)
	}
}

func TestGBStumpsFitsStepFunction(t *testing.T) {
	// A single threshold split is exactly one stump; boosting must nail it.
	n := 40
	x := tensor.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i))
		if i < n/2 {
			y[i] = 1
		} else {
			y[i] = 5
		}
	}
	m := NewGradientBoostedStumps(1)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(m.stumps) == 0 {
		t.Fatal("no stumps fitted on splittable data")
	}
	for _, c := range []struct{ in, want float64 }{{3, 1}, {float64(n - 3), 5}} {
		got, err := m.Predict([]float64{c.in})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.2 {
			t.Fatalf("Predict(%v) = %v, want ≈ %v", c.in, got, c.want)
		}
	}
}

func TestGBStumpsConstantTargets(t *testing.T) {
	// Constant targets leave nothing to split: the fit is just the base
	// value and Predict returns it everywhere.
	x, _ := tensor.NewMatrixFrom(4, 1, []float64{1, 2, 3, 4})
	m := NewGradientBoostedStumps(1)
	if err := m.Fit(x, []float64{7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	if len(m.stumps) != 0 {
		t.Fatalf("fitted %d stumps on constant targets", len(m.stumps))
	}
	got, err := m.Predict([]float64{99})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("Predict = %v, want base 7", got)
	}
}

func TestGBStumpsEarlyStoppingBoundsEnsemble(t *testing.T) {
	rng := tensor.NewRNG(3)
	x, y := synthData(rng, 100, 4, 0.5, func(v []float64) float64 { return 10 + v[0] })
	m := NewGradientBoostedStumps(1)
	m.Rounds = 5000
	m.Patience = 5
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if len(m.stumps) >= 5000 {
		t.Fatalf("early stopping never fired: %d stumps", len(m.stumps))
	}
}

func TestRooflineCalibration(t *testing.T) {
	// Targets that are an exact constant multiple of the roofline's own cost
	// estimate calibrate to that constant and predict exactly.
	x, yRaw := contractData(FeatureAnalytic, 13, 30)
	probe := NewRoofline()
	if err := probe.Fit(x, yRaw); err != nil {
		t.Fatal(err)
	}
	const c = 42.5
	y := make([]float64, len(yRaw))
	for i := range y {
		raw, err := probe.Predict(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		y[i] = c * raw / probe.scale
	}
	m := NewRoofline()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.scale-c) > 1e-9*c {
		t.Fatalf("calibration scale = %v, want %v", m.scale, c)
	}
	for i := 0; i < x.Rows(); i++ {
		got, err := m.Predict(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-y[i]) > 1e-9*y[i] {
			t.Fatalf("row %d: predict %v, want %v", i, got, y[i])
		}
	}
}

func TestRooflineRejectsBadInputs(t *testing.T) {
	x, y := contractData(FeatureAnalytic, 13, 10)
	m := NewRoofline()

	narrow := tensor.NewMatrix(10, 3)
	if err := m.Fit(narrow, y); err == nil || !strings.Contains(err.Error(), "analytic feature schema") {
		t.Fatalf("narrow matrix: err = %v", err)
	}

	bad := append([]float64(nil), y...)
	bad[4] = -1
	if err := m.Fit(x, bad); err == nil || !strings.Contains(err.Error(), "positive targets") {
		t.Fatalf("negative target: err = %v", err)
	}

	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	zeroServers := append([]float64(nil), x.Row(0)...)
	zeroServers[simulatorServersIdx(t)] = 0
	if _, err := m.Predict(zeroServers); err == nil {
		t.Fatal("zero-server feature row predicted")
	}
}

func simulatorServersIdx(t *testing.T) int {
	t.Helper()
	if analyticIdx.servers < 0 {
		t.Fatal("num_servers missing from analytic schema")
	}
	return analyticIdx.servers
}
