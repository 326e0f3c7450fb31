package regress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"predictddl/internal/tensor"
)

// Round-trip and corrupt-blob coverage for the leaderboard backends added to
// the serializer: kNN, gradient-boosted stumps, and the roofline baseline,
// plus their LogTarget wrappers (the form the registry actually serves).

func fittedKNN(t *testing.T) (*KNNRegressor, *tensor.Matrix) {
	t.Helper()
	rng := tensor.NewRNG(21)
	x, y := synthData(rng, 50, 4, 0.05, func(v []float64) float64 { return 10 + v[0] + v[1] })
	m := NewKNN(1)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return m, x
}

func TestKNNRoundTrip(t *testing.T) {
	m, x := fittedKNN(t)
	back := roundTrip(t, m)
	if back.Name() != "knn" {
		t.Fatalf("name = %q", back.Name())
	}
	if got := back.(*KNNRegressor); got.chosenK != m.chosenK || got.LocalLinear != m.LocalLinear {
		t.Fatalf("loaded knn k=%d local=%v, want k=%d local=%v", got.chosenK, got.LocalLinear, m.chosenK, m.LocalLinear)
	}
	assertSamePredictions(t, m, back, x)
}

func TestKNNSaveRefusesUnfitted(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, NewKNN(1)); err == nil {
		t.Fatal("unfitted knn serialized (there is no training set to persist)")
	}
}

func TestGBStumpsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(22)
	x, y := synthData(rng, 60, 3, 0.1, func(v []float64) float64 { return 10 + 2*v[0] - v[2] })
	m := NewGradientBoostedStumps(1)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if got := back.(*GradientBoostedStumps); len(got.stumps) != len(m.stumps) {
		t.Fatalf("loaded %d stumps, want %d", len(got.stumps), len(m.stumps))
	}
	assertSamePredictions(t, m, back, x)
}

func TestRooflineRoundTrip(t *testing.T) {
	x, y := contractData(FeatureAnalytic, 23, 25)
	m := NewRoofline()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, m)
	if got := back.(*RooflineRegressor); got.scale != m.scale {
		t.Fatalf("scale %v != %v after round trip", got.scale, m.scale)
	}
	assertSamePredictions(t, m, back, x)
}

// TestRooflineCheckpointPinned loads a roofline checkpoint saved by the
// version whose snapshot still carried the cost-model options (an unset
// Opts field, now gone from the gob), and checks that both it and a fresh
// fit on the same rows predict to the bit what that version predicted.
func TestRooflineCheckpointPinned(t *testing.T) {
	const wantScale = 0x3fda63fcc5b908a5
	const wantDigest = "6e3d0e2ded68bc241a3fac6732c96e6eec66e36c87f0aa6ee959131f69b64ee5"
	f, err := os.Open(filepath.Join("testdata", "roofline_opts_snapshot.gob"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(loaded.(*RooflineRegressor).scale); got != wantScale {
		t.Fatalf("loaded scale bits %#x, want %#x", got, uint64(wantScale))
	}
	x, y := contractData(FeatureAnalytic, 7, 40)
	fresh := NewRoofline()
	if err := fresh.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    Regressor
	}{{"loaded", loaded}, {"fresh", fresh}} {
		h := sha256.New()
		for i := 0; i < x.Rows(); i++ {
			v, err := c.m.Predict(x.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v)) // hash writes cannot fail
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
			t.Errorf("%s roofline prediction digest %s, want %s", c.name, got, wantDigest)
		}
	}
}

func TestLogWrappedBackendRoundTrips(t *testing.T) {
	rng := tensor.NewRNG(24)
	x, y := synthData(rng, 50, 3, 0.05, func(v []float64) float64 { return 10 + v[0] })
	for _, mk := range []func() Regressor{
		func() Regressor { return NewLogTarget(NewKNN(1)) },
		func() Regressor { return NewLogTarget(NewGradientBoostedStumps(1)) },
	} {
		m := mk()
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		back := roundTrip(t, m)
		if back.Name() != m.Name() {
			t.Fatalf("name %q != %q", back.Name(), m.Name())
		}
		assertSamePredictions(t, m, back, x)
	}
}

// corruptEnvelope encodes a snapshot under the given kind tag, simulating an
// on-disk blob whose payload no longer satisfies the model's invariants.
func corruptEnvelope(t *testing.T, kind string, snapshot any) []byte {
	t.Helper()
	blob, err := encodeBlob(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&envelope{Kind: kind, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	cases := []struct {
		name     string
		kind     string
		snapshot any
	}{
		{"knn dimension mismatch", kindKNN, knnSnapshot{
			ChosenK: 1, Rows: 3, Cols: 2, X: []float64{1, 2, 3}, Y: []float64{1, 2, 3},
			Scaler: &scalerSnapshot{Mean: []float64{0, 0}, Std: []float64{1, 1}},
		}},
		{"knn chosen k out of range", kindKNN, knnSnapshot{
			ChosenK: 9, Rows: 2, Cols: 1, X: []float64{1, 2}, Y: []float64{1, 2},
			Scaler: &scalerSnapshot{Mean: []float64{0}, Std: []float64{1}},
		}},
		{"knn scaler width mismatch", kindKNN, knnSnapshot{
			ChosenK: 1, Rows: 2, Cols: 2, X: []float64{1, 2, 3, 4}, Y: []float64{1, 2},
			Scaler: &scalerSnapshot{Mean: []float64{0}, Std: []float64{1}},
		}},
		{"gb stump splits ghost feature", kindGBStumps, gbSnapshot{
			FeatureCount: 2, Stumps: []stump{{Feature: 5, Threshold: 1}},
		}},
		{"gb zero features", kindGBStumps, gbSnapshot{FeatureCount: 0}},
		{"roofline wrong schema width", kindRoofline, rooflineSnapshot{Scale: 1, FeatureCount: 3}},
		{"roofline non-positive scale", kindRoofline, rooflineSnapshot{Scale: 0, FeatureCount: 13}},
		{"unknown kind", "warp-drive", struct{}{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := corruptEnvelope(t, c.kind, c.snapshot)
			if _, err := Load(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
		})
	}
}
