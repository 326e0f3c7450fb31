package regress

import (
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"predictddl/internal/costmodel"
	"predictddl/internal/tensor"
)

// The contract suite runs every registered backend through the behavioral
// contract Regressor implementations must honor: ErrNotFitted before Fit,
// rejection of wrong-width feature vectors, Fit leaving its inputs
// untouched, same-seed fits being bitwise identical, and Predict being safe
// under concurrent callers (the serving path shares one fitted model across
// request goroutines; run with -race).

// contractData builds a strictly-positive-target training set in the feature
// schema a backend consumes.
func contractData(kind FeatureKind, seed int64, n int) (*tensor.Matrix, []float64) {
	rng := tensor.NewRNG(seed)
	if kind == FeatureEmbedding {
		return synthData(rng, n, 6, 0.05, func(v []float64) float64 {
			return 10 + v[0] + 0.5*v[1] - 0.3*v[2]
		})
	}
	// Analytic schema: plausible campaign-style rows (every constraint the
	// roofline checks — servers ≥ 1, positive min GFLOPS — holds).
	cols := costmodel.NumAnalyticFeatures()
	x := tensor.NewMatrix(n, cols)
	y := make([]float64, n)
	serverGrid := []int{1, 2, 4, 8, 16}
	set := func(row []float64, name string, v float64) {
		row[costmodel.AnalyticIndex(name)] = v
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		s := float64(serverGrid[i%len(serverGrid)])
		flops := rng.Uniform(1e8, 5e9)
		params := rng.Uniform(1e5, 5e7)
		gf := rng.Uniform(500, 6000)
		set(row, "flops", flops)
		set(row, "params", params)
		set(row, "num_nodes", float64(10+rng.Intn(30)))
		set(row, "num_layers", float64(4+rng.Intn(12)))
		set(row, "num_servers", s)
		set(row, "total_gflops", s*gf)
		set(row, "min_server_gflops", gf)
		set(row, "total_ram_gb", 64*s)
		set(row, "total_cores", 16*s)
		set(row, "num_gpus", float64(i%2)*s)
		set(row, "min_nic_gbps", 10)
		set(row, "log_num_servers", math.Log(s))
		set(row, "inv_num_servers", 1/s)
		y[i] = flops / (gf * 1e9) * (1 + 2/s) * rng.Uniform(50, 80)
	}
	return x, y
}

// fingerprint hashes the exact bit patterns of a float slice, so even a
// ±0.0 or NaN-payload change counts as a mutation.
func fingerprint(vals []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// predictBits runs Predict over every row and returns the raw bit patterns.
func predictBits(m Regressor, x *tensor.Matrix) ([]uint64, error) {
	out := make([]uint64, x.Rows())
	for i := 0; i < x.Rows(); i++ {
		p, err := m.Predict(x.Row(i))
		if err != nil {
			return nil, err
		}
		out[i] = math.Float64bits(p)
	}
	return out, nil
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRegressorContract(t *testing.T) {
	for _, b := range Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			x, y := contractData(b.Kind, 7, 60)

			if _, err := b.New(1).Predict(x.Row(0)); !errors.Is(err, ErrNotFitted) {
				t.Fatalf("unfitted Predict error = %v, want ErrNotFitted", err)
			}

			xFP, yFP := fingerprint(x.Data()), fingerprint(y)
			m := b.New(1)
			if err := m.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			if fingerprint(x.Data()) != xFP {
				t.Fatal("Fit mutated the design matrix")
			}
			if fingerprint(y) != yFP {
				t.Fatal("Fit mutated the target slice")
			}

			for _, width := range []int{0, x.Cols() - 1, x.Cols() + 1} {
				if _, err := m.Predict(make([]float64, width)); err == nil {
					t.Fatalf("Predict accepted a %d-wide vector (fitted on %d)", width, x.Cols())
				}
			}

			base, err := predictBits(m, x)
			if err != nil {
				t.Fatal(err)
			}
			m2 := b.New(1)
			if err := m2.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			rerun, err := predictBits(m2, x)
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(base, rerun) {
				t.Fatal("two fits with the same seed disagree bitwise")
			}

			// Concurrent Predict against one shared fitted model must be
			// race-free and agree with the serial pass.
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := predictBits(m, x)
					if err != nil {
						errs <- err
						return
					}
					if !equalBits(base, got) {
						errs <- errors.New("concurrent Predict diverged from the serial pass")
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestBackendRegistryStable pins the registry names and order: the
// leaderboard artifact lists entries in this order, so a reorder or rename
// is a breaking change this test makes deliberate.
func TestBackendRegistryStable(t *testing.T) {
	want := []string{"linear", "polynomial-2", "svr-rbf", "svr-linear", "mlp", "knn", "gb-stumps", "roofline"}
	got := BackendNames()
	if len(got) < len(want) {
		t.Fatalf("backends = %v, want at least %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("backend %d = %q, want %q (registry order is part of the artifact contract)", i, got[i], name)
		}
	}
	for _, name := range got {
		b, err := LookupBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.New == nil || b.Description == "" {
			t.Fatalf("backend %q is missing a factory or description", name)
		}
	}
	if _, err := LookupBackend("no-such-backend"); err == nil {
		t.Fatal("unknown backend lookup succeeded")
	}
	if _, err := NewBackend("no-such-backend", 1); err == nil {
		t.Fatal("unknown backend construction succeeded")
	}
}

// TestKindOf pins the feature-schema routing, including through LogTarget.
func TestKindOf(t *testing.T) {
	cases := []struct {
		m    Regressor
		want FeatureKind
	}{
		{NewLinearRegression(), FeatureEmbedding},
		{NewLogTarget(NewKNN(1)), FeatureEmbedding},
		{NewRoofline(), FeatureAnalytic},
		{NewLogTarget(NewRoofline()), FeatureAnalytic},
	}
	for _, c := range cases {
		if got := KindOf(c.m); got != c.want {
			t.Errorf("KindOf(%s) = %v, want %v", c.m.Name(), got, c.want)
		}
	}
	if FeatureEmbedding.String() != "embedding" || FeatureAnalytic.String() != "analytic" {
		t.Fatal("FeatureKind strings changed; they are part of the artifact schema")
	}
}
