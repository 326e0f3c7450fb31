package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"predictddl/internal/dataset"
	"predictddl/internal/obs"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// The backend leaderboard runs every registered regress backend over every
// dataset's campaign via seeded k-fold cross-validation and reports pooled
// held-out MAPE/RMSE per (backend, dataset). Folds are built once per corpus
// and shared across backends, so every entrant sees identical train/test
// splits; the artifact is a pure function of (corpora, seed, folds) and is
// byte-identical across runs. Wall-clock timings are collected separately so
// they never leak into the reproducible artifact.

// LeaderboardCorpus is one dataset's evaluation corpus: both feature schemas
// over the same campaign points, so embedding and analytic backends compete
// on the same targets.
type LeaderboardCorpus struct {
	// Name identifies the corpus (the dataset name).
	Name string
	// X is the embedding-kind design matrix, [GHN embedding ‖ cluster
	// features] per row — the serving schema of core.InferenceEngine.
	X *tensor.Matrix
	// XAnalytic is the analytic-kind design matrix
	// (costmodel.AnalyticFeatures per row).
	XAnalytic *tensor.Matrix
	// Y holds the measured training times.
	Y []float64
}

// LeaderboardCorpora assembles the evaluation corpus for each dataset from
// the lab's cached GHN and campaign.
func (l *Lab) LeaderboardCorpora(datasets []dataset.Dataset) ([]LeaderboardCorpus, error) {
	out := make([]LeaderboardCorpus, 0, len(datasets))
	for _, d := range datasets {
		points, err := l.Campaign(d)
		if err != nil {
			return nil, err
		}
		g, err := l.GHN(d)
		if err != nil {
			return nil, err
		}
		embeddings, err := embedModels(g, points, d.GraphConfig())
		if err != nil {
			return nil, fmt.Errorf("experiments: leaderboard embeddings for %s: %w", d.Name, err)
		}
		cols := g.EmbeddingDim() + len(points[0].ClusterFeatures)
		x := tensor.NewMatrix(len(points), cols)
		y := make([]float64, len(points))
		var xa *tensor.Matrix
		for i, p := range points {
			x.SetRow(i, tensor.Concat(embeddings[p.Model], p.ClusterFeatures))
			y[i] = p.Seconds
			row, err := p.AnalyticFeatures()
			if err != nil {
				return nil, fmt.Errorf("experiments: leaderboard corpus %s point %d: %w", d.Name, i, err)
			}
			if xa == nil {
				xa = tensor.NewMatrix(len(points), len(row))
			}
			xa.SetRow(i, row)
		}
		out = append(out, LeaderboardCorpus{Name: d.Name, X: x, XAnalytic: xa, Y: y})
	}
	return out, nil
}

// LeaderboardConfig parameterizes a leaderboard run.
type LeaderboardConfig struct {
	// Seed drives fold shuffling and every backend's stochastic choices.
	Seed int64
	// Folds is the cross-validation fold count (default 5).
	Folds int
}

// LeaderboardEntry is one (backend, dataset) cell.
type LeaderboardEntry struct {
	// Backend is the registered backend name; Kind its feature schema.
	Backend string `json:"backend"`
	Kind    string `json:"kind"`
	// MAPE and RMSE are pooled over every fold's held-out predictions.
	MAPE float64 `json:"mape"`
	RMSE float64 `json:"rmse"`
	// Error, when non-empty, explains why the backend produced no score;
	// errored entries never win.
	Error string `json:"error,omitempty"`
}

// DatasetLeaderboard is one dataset's ranking.
type DatasetLeaderboard struct {
	Dataset string `json:"dataset"`
	// Winner is the lowest-MAPE backend (ties break to the lexicographically
	// smaller name).
	Winner  string             `json:"winner"`
	Entries []LeaderboardEntry `json:"entries"`
}

// Leaderboard is the BENCH_leaderboard.json artifact: deterministic for a
// given (corpora, seed, folds) — no timestamps, no wall-clock.
type Leaderboard struct {
	Seed     int64                `json:"seed"`
	Folds    int                  `json:"folds"`
	Backends []string             `json:"backends"`
	Datasets []DatasetLeaderboard `json:"datasets"`
}

// LeaderboardTiming is the non-reproducible wall-clock side channel: total
// fit and predict time for one (backend, dataset) across all folds.
type LeaderboardTiming struct {
	Backend, Dataset           string
	FitSeconds, PredictSeconds float64
}

// RunLeaderboard evaluates every registered backend on every corpus. Folds
// are created once per corpus with the configured seed, so all backends see
// identical splits; a fresh model is constructed per fold. A backend that
// fails on a corpus records the error in its entry instead of aborting the
// run. clock may be nil when timings are not wanted.
func RunLeaderboard(corpora []LeaderboardCorpus, cfg LeaderboardConfig, clock obs.Clock) (*Leaderboard, []LeaderboardTiming, error) {
	if len(corpora) == 0 {
		return nil, nil, fmt.Errorf("experiments: leaderboard needs at least one corpus")
	}
	folds := cfg.Folds
	if folds <= 0 {
		folds = 5
	}
	backends := regress.Backends()
	board := &Leaderboard{Seed: cfg.Seed, Folds: folds, Backends: regress.BackendNames()}
	var timings []LeaderboardTiming

	for _, corpus := range corpora {
		if corpus.X == nil || corpus.XAnalytic == nil || corpus.X.Rows() != len(corpus.Y) {
			return nil, nil, fmt.Errorf("experiments: leaderboard corpus %q is malformed", corpus.Name)
		}
		splits, err := regress.KFold(len(corpus.Y), folds, tensor.NewRNG(cfg.Seed))
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: leaderboard corpus %q: %w", corpus.Name, err)
		}
		dl := DatasetLeaderboard{Dataset: corpus.Name}
		for _, b := range backends {
			x := corpus.X
			if b.Kind == regress.FeatureAnalytic {
				x = corpus.XAnalytic
			}
			entry := LeaderboardEntry{Backend: b.Name, Kind: b.Kind.String()}
			score, timing, err := scoreBackend(b, x, corpus.Y, splits, cfg.Seed, clock)
			if err != nil {
				entry.Error = err.Error()
			} else {
				entry.MAPE, entry.RMSE = score.MAPE, score.RMSE
				if clock != nil {
					timing.Backend, timing.Dataset = b.Name, corpus.Name
					timings = append(timings, timing)
				}
			}
			dl.Entries = append(dl.Entries, entry)
		}
		dl.Winner = pickWinner(dl.Entries)
		board.Datasets = append(board.Datasets, dl)
	}
	return board, timings, nil
}

// scoreBackend pools every fold's held-out predictions and scores them once,
// so folds with few rows don't dominate a per-fold average.
func scoreBackend(b regress.Backend, x *tensor.Matrix, y []float64, splits [][]int, seed int64, clock obs.Clock) (regress.FoldScore, LeaderboardTiming, error) {
	var timing LeaderboardTiming
	var preds, actuals []float64
	for i, test := range splits {
		train := complementOf(x.Rows(), test)
		xTrain, yTrain := regress.Take(x, y, train)
		xTest, yTest := regress.Take(x, y, test)
		m := b.New(seed)
		start := now(clock)
		if err := m.Fit(xTrain, yTrain); err != nil {
			return regress.FoldScore{}, timing, fmt.Errorf("fold %d fit: %w", i, err)
		}
		timing.FitSeconds += since(clock, start)
		start = now(clock)
		p, err := regress.PredictAll(m, xTest)
		if err != nil {
			return regress.FoldScore{}, timing, fmt.Errorf("fold %d predict: %w", i, err)
		}
		timing.PredictSeconds += since(clock, start)
		preds = append(preds, p...)
		actuals = append(actuals, yTest...)
	}
	mape, err := regress.MAPE(preds, actuals)
	if err != nil {
		return regress.FoldScore{}, timing, err
	}
	return regress.FoldScore{RMSE: regress.RMSE(preds, actuals), MAPE: mape}, timing, nil
}

func complementOf(n int, exclude []int) []int {
	in := make(map[int]bool, len(exclude))
	for _, idx := range exclude {
		in[idx] = true
	}
	out := make([]int, 0, n-len(exclude))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

func pickWinner(entries []LeaderboardEntry) string {
	winner := ""
	best := 0.0
	for _, e := range entries {
		if e.Error != "" {
			continue
		}
		if winner == "" || e.MAPE < best || (e.MAPE == best && e.Backend < winner) {
			winner, best = e.Backend, e.MAPE
		}
	}
	return winner
}

// Entry returns one (backend, dataset) cell, or false when absent.
func (lb *Leaderboard) Entry(dataset, backend string) (LeaderboardEntry, bool) {
	for _, d := range lb.Datasets {
		if d.Dataset != dataset {
			continue
		}
		for _, e := range d.Entries {
			if e.Backend == backend {
				return e, true
			}
		}
	}
	return LeaderboardEntry{}, false
}

// MarshalArtifact renders the deterministic BENCH_leaderboard.json bytes:
// two runs with identical inputs produce identical output.
func (lb *Leaderboard) MarshalArtifact() ([]byte, error) {
	out, err := json.MarshalIndent(lb, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: leaderboard artifact: %w", err)
	}
	return append(out, '\n'), nil
}

// RenderTable renders the human-readable leaderboard (the EXPERIMENTS.md
// table). Timings may be nil; when given, fit/predict wall time joins the
// row (timings are measurements, never part of the JSON artifact).
func (lb *Leaderboard) RenderTable(timings []LeaderboardTiming) string {
	timeOf := func(ds, backend string) (LeaderboardTiming, bool) {
		for _, t := range timings {
			if t.Dataset == ds && t.Backend == backend {
				return t, true
			}
		}
		return LeaderboardTiming{}, false
	}
	var sb strings.Builder
	for _, d := range lb.Datasets {
		fmt.Fprintf(&sb, "dataset %s (winner: %s)\n", d.Dataset, d.Winner)
		fmt.Fprintf(&sb, "  %-14s %-10s %10s %12s", "backend", "kind", "MAPE", "RMSE(s)")
		if timings != nil {
			fmt.Fprintf(&sb, " %10s %10s", "fit(s)", "predict(s)")
		}
		sb.WriteString("\n")
		entries := append([]LeaderboardEntry(nil), d.Entries...)
		sort.SliceStable(entries, func(a, b int) bool {
			ea, eb := entries[a], entries[b]
			if (ea.Error == "") != (eb.Error == "") {
				return ea.Error == "" // scored entries first
			}
			return ea.MAPE < eb.MAPE
		})
		for _, e := range entries {
			if e.Error != "" {
				fmt.Fprintf(&sb, "  %-14s %-10s %10s  %s\n", e.Backend, e.Kind, "-", e.Error)
				continue
			}
			marker := ""
			if e.Backend == d.Winner {
				marker = "  <-- winner"
			}
			fmt.Fprintf(&sb, "  %-14s %-10s %9.1f%% %12.2f", e.Backend, e.Kind, 100*e.MAPE, e.RMSE)
			if timings != nil {
				if t, ok := timeOf(d.Dataset, e.Backend); ok {
					fmt.Fprintf(&sb, " %10.3f %10.3f", t.FitSeconds, t.PredictSeconds)
				} else {
					fmt.Fprintf(&sb, " %10s %10s", "-", "-")
				}
			}
			sb.WriteString(marker + "\n")
		}
	}
	return sb.String()
}

func now(clock obs.Clock) int64 {
	if clock == nil {
		return 0
	}
	return clock.Now().UnixNano()
}

func since(clock obs.Clock, start int64) float64 {
	if clock == nil {
		return 0
	}
	return float64(clock.Now().UnixNano()-start) / 1e9
}
