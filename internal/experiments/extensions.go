package experiments

import (
	"fmt"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// HeteroRow is one row of the heterogeneous-cluster extension: prediction
// error on mixed-machine-class clusters, which the paper's design
// explicitly targets ("this allows us to process configurations of
// heterogeneous clusters", §III-C) but its evaluation never measures.
type HeteroRow struct {
	Workload string
	// Servers is the mixed cluster size (half per CPU class).
	Servers int
	// RelErr is |pred − actual| / actual on the mixed cluster.
	RelErr float64
}

// String formats the row.
func (r HeteroRow) String() string {
	return fmt.Sprintf("%-20s %2d mixed servers  rel err %6.1f%%", r.Workload, r.Servers, 100*r.RelErr)
}

// HeterogeneousClusters trains the predictor on homogeneous campaigns over
// both CPU machine classes plus mixed-cluster runs of *other*
// architectures, then predicts the Table-II workloads on mixed clusters
// they never ran on. Homogeneous data alone cannot identify the
// slowest-server feature's coefficient (min = total/n there, perfectly
// collinear), so a realistic campaign covers a few mixed configurations;
// cross-architecture generalization then comes from the GHN embedding as
// usual.
func HeterogeneousClusters(lab *Lab) ([]HeteroRow, error) {
	d := lab.TinyImageNet() // CPU campaigns, per the paper's dataset split
	g, err := lab.GHN(d)
	if err != nil {
		return nil, err
	}
	sim := lab.Simulator()

	// Homogeneous campaigns on both CPU classes.
	var points []simulator.DataPoint
	for _, spec := range []cluster.ServerSpec{cluster.SpecCPUE52630(), cluster.SpecCPUE52650()} {
		pts, err := sim.RunCampaign(simulator.CampaignSpec{
			Models:       lab.Models,
			Dataset:      d,
			ServerSpec:   spec,
			ServerCounts: lab.ServerCounts,
		})
		if err != nil {
			return nil, err
		}
		points = append(points, pts...)
	}

	// Mixed-cluster runs for the campaign models that are NOT evaluation
	// workloads.
	held := map[string]bool{}
	for _, w := range TableIITinyImageNet() {
		held[w] = true
	}
	campaignModels := lab.Models
	if len(campaignModels) == 0 {
		campaignModels = graph.Zoo()
	}
	for _, m := range campaignModels {
		if held[m] {
			continue
		}
		gr, err := graph.Build(m, d.GraphConfig())
		if err != nil {
			return nil, err
		}
		for n := 2; n <= 20; n += 2 {
			c := mixedCPUCluster(n)
			secs, err := sim.TrainingTime(simulator.Workload{
				Graph: gr, Dataset: d, BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs,
			}, c)
			if err != nil {
				return nil, err
			}
			points = append(points, simulator.DataPoint{
				Model: m, Dataset: d.Name, NumServers: n,
				ServerSpecName: "mixed-cpu", BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs,
				ClusterFeatures: c.Features(),
				NumLayers:       gr.NumLayers(), NumParams: gr.TotalParams(),
				FLOPs: gr.TotalFLOPs(), NumNodes: gr.NumNodes(),
				Seconds: secs,
			})
		}
	}
	embeddings, err := embedModels(g, points, d.GraphConfig())
	if err != nil {
		return nil, err
	}
	x, y, err := buildDesign(points, featGHN, embeddings)
	if err != nil {
		return nil, err
	}
	m := regress.NewLogTarget(regress.NewPolynomialRegression(2))
	if err := m.Fit(x, y); err != nil {
		return nil, err
	}

	var rows []HeteroRow
	for _, w := range TableIITinyImageNet() {
		gr, err := graph.Build(w, d.GraphConfig())
		if err != nil {
			return nil, err
		}
		emb := embeddings[w]
		if emb == nil {
			if emb, err = g.Embed(gr); err != nil {
				return nil, err
			}
		}
		for _, n := range []int{4, 8, 16} {
			c := mixedCPUCluster(n)
			pred, err := m.Predict(tensor.Concat(c.Features(), emb))
			if err != nil {
				return nil, err
			}
			actual, err := sim.TrainingTime(simulator.Workload{
				Graph: gr, Dataset: d, BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs,
			}, c)
			if err != nil {
				return nil, err
			}
			rel := pred/actual - 1
			if rel < 0 {
				rel = -rel
			}
			rows = append(rows, HeteroRow{Workload: w, Servers: n, RelErr: rel})
		}
	}
	return rows, nil
}

// mixedCPUCluster builds an n-server cluster alternating the two CPU
// classes.
func mixedCPUCluster(n int) cluster.Cluster {
	c := cluster.Cluster{}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			c.Servers = append(c.Servers, cluster.NewServer(cluster.SpecCPUE52630()))
		} else {
			c.Servers = append(c.Servers, cluster.NewServer(cluster.SpecCPUE52650()))
		}
	}
	return c
}

// SharedGHNRow compares a dataset-specific GHN against one shared GHN
// trained across both datasets' input shapes (the paper's §VI future
// work).
type SharedGHNRow struct {
	Dataset string
	// SpecificErr and SharedErr are mean relative errors with the
	// per-dataset GHN and the shared GHN respectively.
	SpecificErr, SharedErr float64
}

// String formats the row.
func (r SharedGHNRow) String() string {
	return fmt.Sprintf("%-14s dataset-specific GHN %6.1f%% | shared GHN %6.1f%%",
		r.Dataset, 100*r.SpecificErr, 100*r.SharedErr)
}

// SharedGHN trains one GHN over both datasets' architecture distributions
// and measures how much accuracy the sharing costs versus per-dataset
// GHNs.
func SharedGHN(lab *Lab) ([]SharedGHNRow, error) {
	shared, _, err := ghn.Train(ghn.Config{}, ghn.TrainConfig{
		Graphs:      lab.GHNGraphs,
		Epochs:      lab.GHNEpochs,
		BatchSize:   lab.GHNBatchSize,
		Parallelism: lab.GHNParallelism,
		Seed:        lab.Seed + 77,
		GraphConfigs: []graph.Config{
			lab.CIFAR10().GraphConfig(),
			lab.TinyImageNet().GraphConfig(),
		},
	})
	if err != nil {
		return nil, err
	}

	var rows []SharedGHNRow
	for _, ds := range []string{"cifar10", "tiny-imagenet"} {
		d := lab.CIFAR10()
		if ds == "tiny-imagenet" {
			d = lab.TinyImageNet()
		}
		points, err := lab.Campaign(d)
		if err != nil {
			return nil, err
		}
		specific, err := lab.GHN(d)
		if err != nil {
			return nil, err
		}
		evalErr := func(g *ghn.GHN) (float64, error) {
			embeddings, err := embedModels(g, points, d.GraphConfig())
			if err != nil {
				return 0, err
			}
			rng := tensor.NewRNG(lab.Seed + 78)
			trainIdx, testIdx := splitByRNG(len(points), 0.8, rng)
			trainPts, testPts := takePoints(points, trainIdx), takePoints(points, testIdx)
			xTrain, yTrain, err := buildDesign(trainPts, featGHN, embeddings)
			if err != nil {
				return 0, err
			}
			xTest, yTest, err := buildDesign(testPts, featGHN, embeddings)
			if err != nil {
				return 0, err
			}
			m := regress.NewLogTarget(regress.NewPolynomialRegression(2))
			if err := m.Fit(xTrain, yTrain); err != nil {
				return 0, err
			}
			pred, err := regress.PredictAll(m, xTest)
			if err != nil {
				return 0, err
			}
			return regress.MeanRelativeError(pred, yTest), nil
		}
		se, err := evalErr(specific)
		if err != nil {
			return nil, err
		}
		sh, err := evalErr(shared)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SharedGHNRow{Dataset: d.Name, SpecificErr: se, SharedErr: sh})
	}
	return rows, nil
}
