package ernest

import (
	"math"
	"testing"
	"testing/quick"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

func TestNNLSMatchesUnconstrainedWhenPositive(t *testing.T) {
	// y = 2 + 3x with positive coefficients: NNLS must recover them.
	a, _ := tensor.NewMatrixFrom(4, 2, []float64{1, 0, 1, 1, 1, 2, 1, 3})
	b := []float64{2, 5, 8, 11}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-6 || math.Abs(x[1]-3) > 1e-6 {
		t.Fatalf("x = %v, want [2 3]", x)
	}
}

func TestNNLSClampsNegativeSolution(t *testing.T) {
	// Best unconstrained fit has a negative coefficient; NNLS must zero it.
	a, _ := tensor.NewMatrixFrom(3, 2, []float64{1, 0, 1, 1, 1, 2})
	b := []float64{3, 2, 1} // slope −1
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[1] != 0 {
		t.Fatalf("negative-slope coefficient not clamped: %v", x)
	}
	if x[0] <= 0 {
		t.Fatalf("intercept should absorb the fit: %v", x)
	}
}

func TestNNLSNonNegativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		a := rng.GlorotMatrix(12, 4)
		b := make([]float64, 12)
		rng.FillNormal(b, 0, 2)
		x, err := NNLS(a, b)
		if err != nil {
			return false
		}
		for _, v := range x {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNNLSResidualNoWorseThanZero(t *testing.T) {
	// NNLS must never fit worse than x = 0.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		a := rng.GlorotMatrix(10, 3)
		b := make([]float64, 10)
		rng.FillNormal(b, 1, 1)
		x, err := NNLS(a, b)
		if err != nil {
			return false
		}
		ax, _ := a.MulVec(x)
		return tensor.Norm(tensor.SubVec(b, ax)) <= tensor.Norm(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNNLSBadInputs(t *testing.T) {
	if _, err := NNLS(tensor.NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NNLS(tensor.NewMatrix(0, 0), nil); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestErnestFeatures(t *testing.T) {
	f := Features(4)
	want := []float64{1, 0.25, math.Log(4), 4}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-12 {
			t.Fatalf("Features(4) = %v, want %v", f, want)
		}
	}
}

func TestErnestFitsItsOwnModelShape(t *testing.T) {
	// Generate time = 10 + 100/m + 2m (Ernest's exact hypothesis class).
	machines := []int{1, 2, 4, 8, 12, 16, 20}
	secs := make([]float64, len(machines))
	for i, m := range machines {
		secs[i] = 10 + 100/float64(m) + 2*float64(m)
	}
	var e Model
	if err := e.Fit(machines, secs); err != nil {
		t.Fatal(err)
	}
	for i, m := range machines {
		p, err := e.Predict(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-secs[i])/secs[i] > 0.02 {
			t.Fatalf("m=%d: predicted %v, actual %v", m, p, secs[i])
		}
	}
	th := e.theta
	if len(th) != 4 {
		t.Fatalf("theta = %v", th)
	}
	for _, v := range th {
		if v < 0 {
			t.Fatalf("theta has negative entries: %v", th)
		}
	}
}

func TestErnestFitValidation(t *testing.T) {
	var e Model
	if err := e.Fit([]int{1}, []float64{5}); err == nil {
		t.Fatal("single measurement accepted")
	}
	if err := e.Fit([]int{2, 2}, []float64{5, 5}); err == nil {
		t.Fatal("single distinct machine count accepted")
	}
	if err := e.Fit([]int{1, 0}, []float64{5, 5}); err == nil {
		t.Fatal("zero machines accepted")
	}
	if err := e.Fit([]int{1, 2}, []float64{5, -1}); err == nil {
		t.Fatal("negative time accepted")
	}
	if err := e.Fit([]int{1, 2}, []float64{5}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := e.Predict(4); err == nil {
		t.Fatal("unfitted predict accepted")
	}
}

func TestErnestPredictInvalidMachines(t *testing.T) {
	var e Model
	if err := e.Fit([]int{1, 2, 4}, []float64{10, 6, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(0); err == nil {
		t.Fatal("0 machines accepted")
	}
}

func TestErnestOnSimulatedWorkload(t *testing.T) {
	// Ernest trained on a workload's own scaling curve should interpolate
	// that workload decently (it's the wrong tool for *new* workloads, not
	// necessarily for its own).
	sim := simulator.New(1, simulator.Options{})
	points, err := sim.RunCampaign(simulator.CampaignSpec{
		Models:       []string{"resnet18"},
		Dataset:      dataset.CIFAR10(),
		ServerSpec:   cluster.SpecCPUE52630(),
		ServerCounts: simulator.CountRange(1, 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]int, len(points))
	seconds := make([]float64, len(points))
	for i, p := range points {
		machines[i], seconds[i] = p.NumServers, p.Seconds
	}
	var e Model
	if err := e.Fit(machines, seconds); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, p := range points {
		pred, err := e.Predict(p.NumServers)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pred-p.Seconds) / p.Seconds; rel > worst {
			worst = rel
		}
	}
	if worst > 0.5 {
		t.Fatalf("Ernest mis-fits its own workload's curve by %.0f%%", worst*100)
	}
}
