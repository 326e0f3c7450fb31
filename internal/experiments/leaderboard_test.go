package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"predictddl/internal/costmodel"
	"predictddl/internal/obs"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// syntheticCorpora builds two fully synthetic leaderboard corpora with known
// winners: "loglinear" has targets that are exactly exponential in the
// embedding features (the log-target ridge backend fits them to machine
// precision), and "roofline-exact" has targets that are an exact multiple of
// the roofline's own cost estimate. No GHN or campaign runs, so the golden
// test stays fast and the winners are structural, not tuned.
func syntheticCorpora(t *testing.T) []LeaderboardCorpus {
	t.Helper()
	const n = 40
	rng := tensor.NewRNG(17)

	analytic := func(rng *tensor.RNG) (*tensor.Matrix, []float64) {
		cols := costmodel.NumAnalyticFeatures()
		x := tensor.NewMatrix(n, cols)
		raw := make([]float64, n)
		serverGrid := []int{1, 2, 4, 8, 16}
		set := func(row []float64, name string, v float64) {
			row[costmodel.AnalyticIndex(name)] = v
		}
		for i := 0; i < n; i++ {
			row := x.Row(i)
			s := float64(serverGrid[i%len(serverGrid)])
			flops := rng.Uniform(1e8, 5e9)
			gf := rng.Uniform(500, 6000)
			set(row, "flops", flops)
			set(row, "params", rng.Uniform(1e5, 5e7))
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
			raw[i] = flops / (gf * 1e9) * (1 + 2/s)
		}
		return x, raw
	}

	// Corpus 1: targets exponential in the embedding features.
	x1 := tensor.NewMatrix(n, 5)
	y1 := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x1.Row(i)
		rng.FillUniform(row, -1, 1)
		y1[i] = math.Exp(3 + 0.8*row[0] - 0.5*row[1] + 0.2*row[4])
	}
	xa1, _ := analytic(tensor.NewRNG(18))

	// Corpus 2: targets exactly proportional to the roofline estimate, which
	// is restated here from costmodel's step-time terms. The targets keep
	// the form 37·(scale·raw)/scale, with scale the roofline's geometric-mean
	// calibration against raw2, so the golden's bits do not move.
	xa2, raw2 := analytic(tensor.NewRNG(19))
	y2 := make([]float64, n)
	col := func(row []float64, name string) float64 { return row[costmodel.AnalyticIndex(name)] }
	var logSum float64
	for i := 0; i < n; i++ {
		row := xa2.Row(i)
		servers := int(col(row, "num_servers"))
		compute := costmodel.StepCompute(col(row, "flops"), costmodel.BatchPerServer,
			col(row, "min_server_gflops"), costmodel.BaseEfficiency(col(row, "num_gpus") > 0))
		comm := costmodel.ExposedComm(compute, servers, 4*col(row, "params"), col(row, "min_nic_gbps"))
		overhead := costmodel.Overhead(int(col(row, "num_nodes")), servers)
		y2[i] = (compute + comm + overhead) / float64(servers)
		logSum += math.Log(raw2[i] / y2[i])
	}
	scale := math.Exp(logSum / n)
	for i := range y2 {
		y2[i] = 37 * (scale * y2[i]) / scale
	}
	x2 := tensor.NewMatrix(n, 5)
	for i := 0; i < n; i++ {
		rng.FillUniform(x2.Row(i), -1, 1) // uncorrelated noise features
	}

	return []LeaderboardCorpus{
		{Name: "loglinear", X: x1, XAnalytic: xa1, Y: y1},
		{Name: "roofline-exact", X: x2, XAnalytic: xa2, Y: y2},
	}
}

// TestLeaderboardGolden runs the full backend leaderboard over the synthetic
// corpora and compares the rendered artifact byte-for-byte against the
// checked-in golden file. Regenerate deliberately with -update.
func TestLeaderboardGolden(t *testing.T) {
	corpora := syntheticCorpora(t)
	cfg := LeaderboardConfig{Seed: 7, Folds: 4}
	board, timings, err := RunLeaderboard(corpora, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if timings != nil {
		t.Fatalf("nil clock produced %d timings", len(timings))
	}

	if w := board.Datasets[0].Winner; w != "linear" {
		t.Errorf("loglinear winner = %q, want linear (targets are exp-linear in the features)", w)
	}
	if w := board.Datasets[1].Winner; w != "roofline" {
		t.Errorf("roofline-exact winner = %q, want roofline (targets are its own estimate)", w)
	}
	if got := len(board.Backends); got != len(regress.Backends()) {
		t.Fatalf("artifact lists %d backends, registry has %d", got, len(regress.Backends()))
	}
	for _, d := range board.Datasets {
		if len(d.Entries) != len(board.Backends) {
			t.Fatalf("dataset %s has %d entries, want %d", d.Dataset, len(d.Entries), len(board.Backends))
		}
	}

	artifact, err := board.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "leaderboard_golden.json")
	if *update {
		if err := os.WriteFile(path, artifact, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(artifact, want) {
		t.Fatalf("leaderboard artifact drifted from %s (run -update if this change is intended)", path)
	}
}

// TestLeaderboardDeterminism runs the identical leaderboard twice and
// demands byte-identical artifacts — the reproducibility contract of
// BENCH_leaderboard.json.
func TestLeaderboardDeterminism(t *testing.T) {
	cfg := LeaderboardConfig{Seed: 7, Folds: 4}
	render := func() []byte {
		board, _, err := RunLeaderboard(syntheticCorpora(t), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := board.MarshalArtifact()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("two identical leaderboard runs produced different artifacts")
	}
}

func TestLeaderboardRenderTable(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(100, 0))
	clock.SetStep(time.Millisecond)
	board, timings, err := RunLeaderboard(syntheticCorpora(t)[:1], LeaderboardConfig{Seed: 7, Folds: 4}, clock)
	if err != nil {
		t.Fatal(err)
	}
	table := board.RenderTable(timings)
	for _, want := range []string{"loglinear", "<-- winner", "fit(s)", "linear"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if _, ok := board.Entry("loglinear", "knn"); !ok {
		t.Error("Entry lookup failed for a scored cell")
	}
	if _, ok := board.Entry("loglinear", "warp-drive"); ok {
		t.Error("Entry lookup succeeded for an unknown backend")
	}
}

func TestLeaderboardRejectsMalformedCorpus(t *testing.T) {
	if _, _, err := RunLeaderboard(nil, LeaderboardConfig{}, nil); err == nil {
		t.Fatal("empty corpus list accepted")
	}
	bad := []LeaderboardCorpus{{Name: "x", Y: []float64{1, 2}}}
	if _, _, err := RunLeaderboard(bad, LeaderboardConfig{}, nil); err == nil {
		t.Fatal("nil design matrices accepted")
	}
}
