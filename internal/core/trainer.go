package core

import (
	"fmt"
	"time"

	"predictddl/internal/costmodel"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// DesignMatrixWithEmbeddings assembles the regression dataset from campaign
// points — each row is [GHN embedding of the point's architecture ‖ cluster
// features], the target the measured training time — and returns the
// per-architecture embeddings (read-only) beside it, so callers can seed an
// engine's reference set without recomputing them. It runs the same embedding
// loop TrainEngine does — an engine's EmbedAll — on a throwaway engine around g.
func DesignMatrixWithEmbeddings(g *ghn.GHN, points []simulator.DataPoint, gcfg graph.Config) (*tensor.Matrix, []float64, map[string][]float64, error) {
	return NewInferenceEngine("", g, nil).designMatrix(points, gcfg)
}

// designMatrix builds the campaign's distinct architectures at gcfg, embeds
// them through e.EmbedAll — in parallel, and into e's embedding cache, so an
// engine that goes on to serve starts with its training architectures warm —
// and assembles the regression dataset.
func (e *InferenceEngine) designMatrix(points []simulator.DataPoint, gcfg graph.Config) (*tensor.Matrix, []float64, map[string][]float64, error) {
	if len(points) == 0 {
		return nil, nil, nil, fmt.Errorf("core: no campaign points")
	}
	models := simulator.Models(points)
	graphs := make([]*graph.Graph, len(models))
	for i, m := range models {
		var err error
		if graphs[i], err = graph.Build(m, gcfg); err != nil {
			return nil, nil, nil, fmt.Errorf("core: design matrix: %w", err)
		}
	}
	rows, err := e.EmbedAll(graphs)
	if err != nil {
		return nil, nil, nil, err
	}
	embeddings := make(map[string][]float64, len(models))
	for i, m := range models {
		embeddings[m] = rows[i]
	}
	cols := e.ghn.EmbeddingDim() + len(points[0].ClusterFeatures)
	x := tensor.NewMatrix(len(points), cols)
	y := make([]float64, len(points))
	for i, p := range points {
		emb := embeddings[p.Model]
		if len(emb)+len(p.ClusterFeatures) != cols {
			return nil, nil, nil, fmt.Errorf("core: point %d has inconsistent feature width", i)
		}
		x.SetRow(i, tensor.Concat(emb, p.ClusterFeatures))
		y[i] = p.Seconds
	}
	return x, y, embeddings, nil
}

// AnalyticDesignMatrix assembles the regression dataset for analytic-kind
// backends: each row is costmodel.AnalyticFeatures (graph scalars ‖ cluster
// features) with no GHN involvement.
func AnalyticDesignMatrix(points []simulator.DataPoint) (*tensor.Matrix, []float64, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("core: no campaign points")
	}
	x := tensor.NewMatrix(len(points), costmodel.NumAnalyticFeatures())
	y := make([]float64, len(points))
	for i, p := range points {
		row, err := p.AnalyticFeatures()
		if err != nil {
			return nil, nil, fmt.Errorf("core: analytic design matrix point %d: %w", i, err)
		}
		x.SetRow(i, row)
		y[i] = p.Seconds
	}
	return x, y, nil
}

// TrainOptions configures the Offline Trainer (Fig. 8 of the paper).
type TrainOptions struct {
	// Dataset selects the dataset type; the GHN registry is keyed by it.
	Dataset dataset.Dataset
	// GHNConfig shapes the hypernetwork. The zero value is d = 32 with
	// VirtualEdges and Normalize off — GHN-1 message passing (Eq. 3)
	// without operation-dependent normalization, not the paper's GHN-2;
	// pass ghn.DefaultConfig() for GHN-2. Every caller that leaves this
	// zero (predictddl.Train, the experiments lab, the benchmark) therefore
	// trains the GHN-1 variant; see ROADMAP item 6.
	GHNConfig ghn.Config
	// GHNTraining controls the proxy-objective training run.
	GHNTraining ghn.TrainConfig
	// GHN, when non-nil, skips GHN training and reuses a pre-trained
	// model (the common path: the GHN is dataset-specific, not
	// cluster-specific, so it survives cluster changes — §III-G).
	GHN *ghn.GHN
	// Campaign describes the execution-sample collection (which models on
	// which machine class at which cluster sizes).
	Campaign simulator.CampaignSpec
	// Regressor is the prediction model; nil selects the serving default,
	// ridge linear regression on log targets (the "linear" backend).
	Regressor regress.Regressor
	// Simulator provides ground-truth measurements; nil uses seed 1 with
	// default options.
	Simulator *simulator.Simulator
}

// TrainResult is the Offline Trainer's output.
type TrainResult struct {
	// Engine is the ready-to-serve inference engine.
	Engine *InferenceEngine
	// Points are the collected execution samples.
	Points []simulator.DataPoint
	// GHNReport summarizes GHN training (zero-valued when a pre-trained
	// GHN was supplied).
	GHNReport ghn.TrainReport
	// GHNTrainTime, CampaignTime, EmbedFitTime record wall-clock durations
	// of the pipeline stages (used by the Fig. 13 batch study).
	GHNTrainTime, CampaignTime, EmbedFitTime time.Duration
}

// TrainEngine runs the offline pipeline: train (or reuse) the dataset's
// GHN, collect execution samples, embed every architecture, and fit the
// prediction model.
func TrainEngine(opts TrainOptions) (*TrainResult, error) {
	if opts.Dataset.Name == "" {
		return nil, fmt.Errorf("core: TrainOptions.Dataset is required")
	}
	res := &TrainResult{}

	g := opts.GHN
	if g == nil {
		tc := opts.GHNTraining
		if tc.GraphConfig == (graph.Config{}) {
			tc.GraphConfig = opts.Dataset.GraphConfig()
		}
		start := time.Now()
		trained, report, err := ghn.Train(opts.GHNConfig, tc)
		if err != nil {
			return nil, fmt.Errorf("core: offline GHN training: %w", err)
		}
		res.GHNTrainTime = time.Since(start)
		res.GHNReport = report
		g = trained
	}

	sim := opts.Simulator
	if sim == nil {
		sim = simulator.New(1, simulator.Options{})
	}
	campaign := opts.Campaign
	if campaign.Dataset.Name == "" {
		campaign.Dataset = opts.Dataset
	}
	start := time.Now()
	points, err := sim.RunCampaign(campaign)
	if err != nil {
		return nil, fmt.Errorf("core: execution-sample collection: %w", err)
	}
	res.CampaignTime = time.Since(start)
	res.Points = points

	model := opts.Regressor
	if model == nil {
		// Generalized linear regression in log-time space. The paper rates
		// LR and PR(2) as comparably accurate (Fig. 10); in log space the
		// linear model is markedly more robust on architectures absent
		// from the campaign, because quadratic terms extrapolate wildly
		// off-distribution (see EXPERIMENTS.md).
		model = regress.NewLogTarget(regress.NewLinearRegression())
	}
	start = time.Now()
	// The engine exists before its model is fitted so the campaign
	// architectures are embedded through its own EmbedAll and land in its
	// cache. Embeddings are computed for every model kind: analytic backends
	// skip them at fit and predict time, but the Confidence reference set
	// still lives in embedding space.
	engine := NewInferenceEngine(opts.Dataset.Name, g, model)
	x, y, embeddings, err := engine.designMatrix(points, opts.Dataset.GraphConfig())
	if err != nil {
		return nil, err
	}
	if regress.KindOf(model) == regress.FeatureAnalytic {
		if x, y, err = AnalyticDesignMatrix(points); err != nil {
			return nil, err
		}
	}
	if err := model.Fit(x, y); err != nil {
		return nil, fmt.Errorf("core: fitting prediction model: %w", err)
	}
	res.EmbedFitTime = time.Since(start)

	engine.SetReference(embeddings)
	res.Engine = engine
	return res, nil
}
