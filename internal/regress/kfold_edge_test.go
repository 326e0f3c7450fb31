package regress

import (
	"math"
	"testing"
)

// Regression test for the MAPE edge cases that used to surface as NaN deep
// inside a leaderboard run instead of a diagnosable error.
func TestMAPEEdgeCases(t *testing.T) {
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Fatal("empty slices accepted")
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero actual accepted (division by zero)")
	}
	got, err := MAPE([]float64{90, 110}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v, want 0.1", got)
	}
}
