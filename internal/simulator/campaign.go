package simulator

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/dataset"
	"predictddl/internal/graph"
)

// DataPoint is one measured training run: the execution-data rows the
// prediction models train on. It carries the black-box features (cluster
// descriptors), the gray-box features (layer/parameter counts), and the
// measured time.
type DataPoint struct {
	// Model is the architecture name (zoo key).
	Model string
	// Dataset is the dataset name.
	Dataset string
	// NumServers is the cluster size used for the run.
	NumServers int
	// ServerSpecName identifies the machine class.
	ServerSpecName string
	// BatchPerServer and Epochs are the training-loop parameters.
	BatchPerServer, Epochs int
	// ClusterFeatures is cluster.Features() at run time.
	ClusterFeatures []float64
	// NumLayers, NumParams, FLOPs, NumNodes are the DNN-specific gray-box
	// features.
	NumLayers int
	NumParams int64
	FLOPs     int64
	NumNodes  int
	// Seconds is the measured training time.
	Seconds float64
}

// AnalyticFeatures returns the point's analytic feature row — the campaign
// counterpart of costmodel.AnalyticFeaturesFor, assembled from the gray-box
// fields the point already carries.
func (p DataPoint) AnalyticFeatures() ([]float64, error) {
	return costmodel.AnalyticFeatures(p.FLOPs, p.NumParams, p.NumNodes, p.NumLayers, p.ClusterFeatures)
}

// CampaignSpec describes a measurement campaign: which models to train, on
// which dataset and machine class, across which cluster sizes. Every run
// uses the costmodel.BatchPerServer × costmodel.Epochs training loop.
type CampaignSpec struct {
	// Models are zoo architecture names; empty means the full zoo.
	Models []string
	// Dataset is the training dataset.
	Dataset dataset.Dataset
	// ServerSpec is the machine class used for every server.
	ServerSpec cluster.ServerSpec
	// ServerCounts lists the cluster sizes to measure (paper: 1–20).
	ServerCounts []int
}

func (cs CampaignSpec) withDefaults() CampaignSpec {
	if len(cs.Models) == 0 {
		cs.Models = graph.Zoo()
	}
	if len(cs.ServerCounts) == 0 {
		cs.ServerCounts = CountRange(1, 20)
	}
	return cs
}

// CountRange returns the inclusive integer range [lo, hi].
func CountRange(lo, hi int) []int {
	if hi < lo {
		return nil
	}
	out := make([]int, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// RunCampaign simulates every (model, cluster size) combination in spec,
// fanning work out over runtime.NumCPU() workers, and returns the points
// sorted by (model, servers). This is the stand-in for the paper's 2,000
// CloudLab training runs.
func (s *Simulator) RunCampaign(spec CampaignSpec) ([]DataPoint, error) {
	spec = spec.withDefaults()

	type job struct {
		model   string
		servers int
	}
	jobs := make([]job, 0, len(spec.Models)*len(spec.ServerCounts))
	for _, m := range spec.Models {
		for _, n := range spec.ServerCounts {
			if n <= 0 {
				return nil, fmt.Errorf("simulator: invalid server count %d", n)
			}
			jobs = append(jobs, job{m, n})
		}
	}

	// Build each model's graph once; shared read-only across workers.
	graphs := make(map[string]*graph.Graph, len(spec.Models))
	for _, m := range spec.Models {
		g, err := graph.Build(m, spec.Dataset.GraphConfig())
		if err != nil {
			return nil, fmt.Errorf("simulator: campaign model %q: %w", m, err)
		}
		graphs[m] = g
	}

	points := make([]DataPoint, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, j job) {
			defer func() {
				<-sem
				wg.Done()
			}()
			g := graphs[j.model]
			c := cluster.Homogeneous(j.servers, spec.ServerSpec)
			w := Workload{Graph: g, Dataset: spec.Dataset, BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs}
			secs, err := s.TrainingTime(w, c)
			if err != nil {
				errs[i] = fmt.Errorf("simulator: %s on %d servers: %w", j.model, j.servers, err)
				return
			}
			points[i] = DataPoint{
				Model:           j.model,
				Dataset:         spec.Dataset.Name,
				NumServers:      j.servers,
				ServerSpecName:  spec.ServerSpec.Name,
				BatchPerServer:  costmodel.BatchPerServer,
				Epochs:          costmodel.Epochs,
				ClusterFeatures: c.Features(),
				NumLayers:       g.NumLayers(),
				NumParams:       g.TotalParams(),
				FLOPs:           g.TotalFLOPs(),
				NumNodes:        g.NumNodes(),
				Seconds:         secs,
			}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].Model != points[b].Model {
			return points[a].Model < points[b].Model
		}
		return points[a].NumServers < points[b].NumServers
	})
	return points, nil
}

// FilterModel returns the points belonging to one model.
func FilterModel(points []DataPoint, model string) []DataPoint {
	var out []DataPoint
	for _, p := range points {
		if p.Model == model {
			out = append(out, p)
		}
	}
	return out
}

// Models returns the distinct model names present in points, sorted.
func Models(points []DataPoint) []string {
	set := map[string]bool{}
	for _, p := range points {
		set[p.Model] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
