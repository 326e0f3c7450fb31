// Package predictddl is a reusable training-time predictor for distributed
// deep-learning workloads, reproducing "PredictDDL: Reusable Workload
// Performance Prediction for Distributed Deep Learning" (IEEE CLUSTER
// 2023).
//
// PredictDDL embeds a DNN's computational graph with a Graph HyperNetwork
// (GHN-2) into a fixed-size vector, concatenates descriptors of the target
// cluster, and feeds the result to a regression model. The predictor is
// trained once per dataset type; new DNN architectures are predicted with
// zero retraining — unlike black-box baselines (Ernest) that must collect
// fresh measurements for every workload change.
//
// Quick start:
//
//	p, err := predictddl.Train(predictddl.Options{Dataset: "cifar10"})
//	if err != nil { ... }
//	secs, err := p.Predict("resnet50", 8) // 8 GPU servers
//
// The package re-exports the substrate types (graphs, clusters, datasets,
// regressors) so downstream code can compose custom workloads, and the
// cmd/predictddl binary serves the same predictor over HTTP.
package predictddl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// Re-exported substrate types. These aliases form the public surface of the
// library; the internal packages stay free to grow without breaking
// downstream imports.
type (
	// Graph is a DNN architecture as a DAG of primitive operations.
	Graph = graph.Graph
	// GraphConfig shapes model instantiation (input size, classes).
	GraphConfig = graph.Config
	// Dataset describes a training dataset.
	Dataset = dataset.Dataset
	// Cluster is a set of servers running one training job.
	Cluster = cluster.Cluster
	// Server is one machine with its live load state.
	Server = cluster.Server
	// ServerSpec is a machine class (cores, RAM, FLOPS, NIC).
	ServerSpec = cluster.ServerSpec
	// Regressor is a trainable regression model for the inference engine.
	Regressor = regress.Regressor
	// GHN is the graph hypernetwork producing architecture embeddings.
	GHN = ghn.GHN
	// DataPoint is one measured training run from a campaign.
	DataPoint = simulator.DataPoint
	// Workload is a (DNN, dataset, hyperparameters) training job.
	Workload = simulator.Workload
	// Controller serves predictions over HTTP.
	Controller = core.Controller
	// InferenceEngine is the trained prediction engine.
	InferenceEngine = core.InferenceEngine
	// MetricsRegistry is the process-local observability registry: typed
	// counters, gauges, and fixed-bucket histograms with deterministic
	// serialization (DESIGN.md §9). Attach one via Options.Obs to observe
	// offline training, or read a Controller's via Controller.Metrics.
	MetricsRegistry = obs.Registry
)

// NewMetricsRegistry returns an empty metrics registry backed by the system
// clock.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry(nil) }

// BackendNames lists the registered predictor backends in leaderboard order
// (the values accepted by NewBackendRegressor and the CLIs' -backend flag).
func BackendNames() []string { return regress.BackendNames() }

// NewBackendRegressor builds a fresh model for a registered backend name
// ("linear", "polynomial-2", "svr-rbf", "svr-linear", "mlp", "knn",
// "gb-stumps", "roofline") for use as Options.Regressor. The seed drives any
// stochastic choices; the same seed yields bit-identical fits.
func NewBackendRegressor(name string, seed int64) (Regressor, error) {
	return regress.NewBackend(name, seed)
}

// Zoo returns the 31 built-in architecture names.
func Zoo() []string { return graph.Zoo() }

// BuildModel instantiates a zoo architecture for a dataset's input shape.
func BuildModel(name string, d Dataset) (*Graph, error) {
	return graph.Build(name, d.GraphConfig())
}

// LookupDataset resolves a dataset descriptor ("cifar10", "tiny-imagenet",
// "imagenet").
func LookupDataset(name string) (Dataset, error) { return dataset.Lookup(name) }

// RandomArchitecture samples a DARTS-style random architecture shaped for
// the dataset — the candidate generator for neural-architecture-search
// scenarios (the paper's §III-A motivating application).
func RandomArchitecture(seed int64, d Dataset) *Graph {
	return graph.RandomGraph(tensor.NewRNG(seed), d.GraphConfig())
}

// LookupServerSpec resolves a built-in machine class
// ("cloudlab-e5-2630", "cloudlab-e5-2650", "cloudlab-p100").
func LookupServerSpec(name string) (ServerSpec, error) { return cluster.LookupSpec(name) }

// Homogeneous builds an n-server cluster of one machine class.
func Homogeneous(n int, spec ServerSpec) Cluster { return cluster.Homogeneous(n, spec) }

// Options configures Train. The zero value (plus a Dataset) trains a
// CIFAR-10-style predictor over the full zoo on GPU servers.
type Options struct {
	// Dataset is the dataset type ("cifar10", "tiny-imagenet"). Required.
	Dataset string
	// Models are the campaign architectures; empty means the full zoo.
	Models []string
	// ServerSpecName is the campaign machine class; empty selects the GPU
	// class for cifar10 and the 16-core CPU class otherwise, mirroring the
	// paper's testbed usage.
	ServerSpecName string
	// ServerCounts are the campaign cluster sizes; empty means 1–20.
	ServerCounts []int
	// EmbeddingDim is the GHN embedding size (default 32).
	EmbeddingDim int
	// GHNGraphs / GHNEpochs control offline GHN training (defaults
	// 256 / 8).
	GHNGraphs, GHNEpochs int
	// GHNBatchSize is the GHN training mini-batch size (default 1, the
	// per-graph update schedule). Values > 1 average gradients over the
	// batch and unlock data-parallel training.
	GHNBatchSize int
	// GHNParallelism caps the GHN training workers per batch: 0 uses
	// NumCPU, 1 forces serial. Results are bit-identical for every value.
	GHNParallelism int
	// Regressor overrides the prediction model (default: generalized
	// linear regression on log time).
	Regressor Regressor
	// Seed makes the whole pipeline deterministic (default 1).
	Seed int64
	// Obs, when non-nil, instruments the pipeline against this metrics
	// registry: GHN training step times and queue depth during Train, embed
	// latency and cache hit/miss counters on the resulting engine.
	// Instrumentation never changes results.
	Obs *MetricsRegistry
}

// Predictor is a trained PredictDDL instance for one dataset type.
type Predictor struct {
	engine  *core.InferenceEngine
	dataset Dataset
	spec    ServerSpec
	points  []DataPoint
}

// Train runs the offline pipeline (Fig. 8 of the paper): train the
// dataset's GHN on a synthetic architecture distribution, collect
// execution samples across cluster sizes, and fit the prediction model.
func Train(opts Options) (*Predictor, error) {
	if opts.Dataset == "" {
		return nil, fmt.Errorf("predictddl: Options.Dataset is required")
	}
	d, err := dataset.Lookup(opts.Dataset)
	if err != nil {
		return nil, err
	}
	specName := opts.ServerSpecName
	if specName == "" {
		if d.Name == "cifar10" {
			specName = cluster.SpecGPUP100().Name
		} else {
			specName = cluster.SpecCPUE52630().Name
		}
	}
	spec, err := cluster.LookupSpec(specName)
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	res, err := core.TrainEngine(core.TrainOptions{
		Dataset:   d,
		GHNConfig: ghn.Config{EmbedDim: opts.EmbeddingDim},
		GHNTraining: ghn.TrainConfig{
			Graphs:      opts.GHNGraphs,
			Epochs:      opts.GHNEpochs,
			BatchSize:   opts.GHNBatchSize,
			Parallelism: opts.GHNParallelism,
			Seed:        seed,
			Metrics:     ghn.NewMetrics(opts.Obs),
		},
		Campaign: simulator.CampaignSpec{
			Models:       opts.Models,
			Dataset:      d,
			ServerSpec:   spec,
			ServerCounts: opts.ServerCounts,
		},
		Regressor: opts.Regressor,
		Simulator: simulator.New(seed, simulator.Options{}),
	})
	if err != nil {
		return nil, err
	}
	res.Engine.Instrument(opts.Obs) // no-op when opts.Obs is nil
	return &Predictor{engine: res.Engine, dataset: d, spec: spec, points: res.Points}, nil
}

// Predict estimates the training time (seconds) for a zoo architecture on
// n servers of the predictor's machine class.
func (p *Predictor) Predict(model string, servers int) (float64, error) {
	if servers < 1 {
		return 0, fmt.Errorf("predictddl: need at least 1 server, got %d", servers)
	}
	g, err := BuildModel(model, p.dataset)
	if err != nil {
		return 0, err
	}
	return p.engine.Predict(g, cluster.Homogeneous(servers, p.spec))
}

// PredictGraph estimates the training time for an arbitrary computational
// graph on an arbitrary cluster — the fully general entry point.
func (p *Predictor) PredictGraph(g *Graph, c Cluster) (float64, error) {
	return p.engine.Predict(g, c)
}

// PredictBatch predicts every zoo model on the same cluster size in one
// call. Distinct architectures are embedded concurrently, so a batch over
// many models is substantially faster than a Predict loop on multi-core
// machines (the paper's Fig. 13 batch-job scenario). Results are
// index-aligned with models.
func (p *Predictor) PredictBatch(models []string, servers int) ([]float64, error) {
	if servers < 1 {
		return nil, fmt.Errorf("predictddl: need at least 1 server, got %d", servers)
	}
	// Each distinct model is built once; its items share the graph, which
	// the engine then fingerprints and embeds once.
	graphs := make([]*Graph, len(models))
	clusters := make([]Cluster, len(models))
	built := make(map[string]*Graph, len(models))
	cl := cluster.Homogeneous(servers, p.spec)
	for i, m := range models {
		g, ok := built[m]
		if !ok {
			var err error
			if g, err = BuildModel(m, p.dataset); err != nil {
				return nil, err
			}
			built[m] = g
		}
		graphs[i] = g
		clusters[i] = cl
	}
	res, err := p.engine.PredictBatch(graphs, clusters)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("predictddl: batch item %d (%s): %w", i, models[i], r.Err)
		}
		out[i] = r.Seconds
	}
	return out, nil
}

// PredictGraphBatch is PredictBatch for arbitrary (graph, cluster) pairs.
// It returns per-item results: a bad item records its error without
// failing the whole batch.
func (p *Predictor) PredictGraphBatch(graphs []*Graph, clusters []Cluster) ([]core.BatchPrediction, error) {
	return p.engine.PredictBatch(graphs, clusters)
}

// Embedding returns the GHN embedding of a zoo architecture.
func (p *Predictor) Embedding(model string) ([]float64, error) {
	g, err := BuildModel(model, p.dataset)
	if err != nil {
		return nil, err
	}
	return p.engine.Embedding(g)
}

// Similarity returns the cosine similarity of two architectures in
// embedding space.
func (p *Predictor) Similarity(a, b string) (float64, error) {
	ga, err := BuildModel(a, p.dataset)
	if err != nil {
		return 0, err
	}
	gb, err := BuildModel(b, p.dataset)
	if err != nil {
		return 0, err
	}
	return p.engine.Similarity(ga, gb)
}

// Confidence reports how close a zoo architecture sits to the campaign
// architectures in embedding space: the most similar known model and the
// centered cosine similarity to it. Low values flag extrapolation.
func (p *Predictor) Confidence(model string) (closest string, similarity float64, err error) {
	g, err := BuildModel(model, p.dataset)
	if err != nil {
		return "", 0, err
	}
	return p.engine.Confidence(g)
}

// ConfidenceGraph is Confidence for arbitrary computational graphs.
func (p *Predictor) ConfidenceGraph(g *Graph) (closest string, similarity float64, err error) {
	return p.engine.Confidence(g)
}

// Engine exposes the underlying inference engine (for the HTTP controller
// and advanced composition).
func (p *Predictor) Engine() *InferenceEngine { return p.engine }

// Dataset returns the dataset descriptor the predictor was trained for.
func (p *Predictor) Dataset() Dataset { return p.dataset }

// CampaignPoints returns the execution samples collected during training.
func (p *Predictor) CampaignPoints() []DataPoint { return p.points }

// Save persists the trained predictor (GHN weights + fitted regressor +
// metadata) so later processes can LoadPredictor instead of re-running the
// offline pipeline. Only the default regressor families persist; see
// regress.Save.
func (p *Predictor) Save(w io.Writer) error {
	var engineBuf bytes.Buffer
	if err := p.engine.Save(&engineBuf); err != nil {
		return err
	}
	ck := predictorCheckpoint{
		Dataset:    p.dataset.Name,
		SpecName:   p.spec.Name,
		EngineBlob: engineBuf.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("predictddl: save: %w", err)
	}
	return nil
}

// SaveFile persists the predictor to a file. A close failure (e.g. a full
// disk flushing buffered writes) is reported exactly once.
func (p *Predictor) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("predictddl: save file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("predictddl: save file: %w", cerr)
		}
	}()
	return p.Save(f)
}

// predictorCheckpoint is the on-disk predictor format.
type predictorCheckpoint struct {
	Dataset    string
	SpecName   string
	EngineBlob []byte
}

// LoadPredictor restores a predictor written by Save.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var ck predictorCheckpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("predictddl: load: %w", err)
	}
	d, err := dataset.Lookup(ck.Dataset)
	if err != nil {
		return nil, err
	}
	spec, err := cluster.LookupSpec(ck.SpecName)
	if err != nil {
		return nil, err
	}
	engine, err := core.LoadEngine(bytes.NewReader(ck.EngineBlob))
	if err != nil {
		return nil, err
	}
	return &Predictor{engine: engine, dataset: d, spec: spec}, nil
}

// LoadPredictorFile restores a predictor from a file.
func LoadPredictorFile(path string) (p *Predictor, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("predictddl: load file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			p, err = nil, fmt.Errorf("predictddl: load file: %w", cerr)
		}
	}()
	return LoadPredictor(f)
}

// NewController wraps predictors in an HTTP controller serving
// /v1/predict, /v1/predict/batch, /v1/status, and /v1/models.
func NewController(ps ...*Predictor) *Controller {
	reg := core.NewGHNRegistry()
	engines := make([]*core.InferenceEngine, len(ps))
	for i, p := range ps {
		engines[i] = p.engine
	}
	return core.NewController(reg, engines...)
}
