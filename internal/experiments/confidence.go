package experiments

import (
	"fmt"
	"math"
	"sort"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// ConfidenceRow relates a held-out architecture's embedding-space
// confidence to its actual prediction error — testing whether the paper's
// cosine-similarity machinery (§III-E) doubles as a usable trust signal.
type ConfidenceRow struct {
	// Model is the held-out architecture (never in the campaign).
	Model string
	// Closest is the most similar campaign architecture.
	Closest string
	// Similarity is the centered cosine similarity to Closest.
	Similarity float64
	// RelErr is the prediction's relative error at 8 servers.
	RelErr float64
}

// String formats the row.
func (r ConfidenceRow) String() string {
	return fmt.Sprintf("%-20s closest %-20s sim %6.3f | rel err %6.1f%%",
		r.Model, r.Closest, r.Similarity, 100*r.RelErr)
}

// ConfidenceCalibration holds out one third of the zoo, trains on the
// rest, and reports (confidence, error) pairs for the held-out models plus
// the rank correlation between low confidence and high error.
func ConfidenceCalibration(lab *Lab) ([]ConfidenceRow, float64, error) {
	d := lab.CIFAR10()
	g, err := lab.GHN(d)
	if err != nil {
		return nil, 0, err
	}
	sim := lab.Simulator()
	spec := lab.SpecFor(d)

	all := lab.Models
	if len(all) == 0 {
		all = graph.Zoo()
	}
	var trainModels, heldOut []string
	for i, m := range all {
		if i%3 == 0 {
			heldOut = append(heldOut, m)
		} else {
			trainModels = append(trainModels, m)
		}
	}
	points, err := sim.RunCampaign(simulator.CampaignSpec{
		Models:       trainModels,
		Dataset:      d,
		ServerSpec:   spec,
		ServerCounts: lab.ServerCounts,
	})
	if err != nil {
		return nil, 0, err
	}
	embeddings, err := embedModels(g, points, d.GraphConfig())
	if err != nil {
		return nil, 0, err
	}
	x, y, err := buildDesign(points, featGHN, embeddings)
	if err != nil {
		return nil, 0, err
	}
	m := regress.NewLogTarget(regress.NewLinearRegression())
	if err := m.Fit(x, y); err != nil {
		return nil, 0, err
	}

	// Reference mean for centered similarity, accumulated over sorted names
	// so the float reduction order (and thus the exact bits) is identical
	// run to run.
	refNames := make([]string, 0, len(embeddings))
	for name := range embeddings {
		refNames = append(refNames, name)
	}
	sort.Strings(refNames)
	mean := make([]float64, g.EmbeddingDim())
	for _, name := range refNames {
		tensor.AxpyInPlace(mean, embeddings[name], 1/float64(len(embeddings)))
	}

	c := cluster.Homogeneous(8, spec)
	var rows []ConfidenceRow
	for _, name := range heldOut {
		gr, err := graph.Build(name, d.GraphConfig())
		if err != nil {
			return nil, 0, err
		}
		emb, err := g.Embed(gr)
		if err != nil {
			return nil, 0, err
		}
		centered := tensor.SubVec(emb, mean)
		// Sorted iteration makes the nearest-reference choice deterministic
		// even when two references tie on similarity.
		closest, best := "", -2.0
		for _, refName := range refNames {
			if s := tensor.CosineSimilarity(centered, tensor.SubVec(embeddings[refName], mean)); s > best {
				closest, best = refName, s
			}
		}
		pred, err := m.Predict(tensor.Concat(c.Features(), emb))
		if err != nil {
			return nil, 0, err
		}
		actual, err := sim.TrainingTime(simulator.Workload{
			Graph: gr, Dataset: d, BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs,
		}, c)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, ConfidenceRow{
			Model:      name,
			Closest:    closest,
			Similarity: best,
			RelErr:     math.Abs(pred-actual) / actual,
		})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Similarity > rows[b].Similarity })
	return rows, spearman(rows), nil
}

// spearman computes the rank correlation between (negated) similarity and
// error: positive values mean low confidence predicts high error.
func spearman(rows []ConfidenceRow) float64 {
	n := len(rows)
	if n < 3 {
		return 0
	}
	simRank := ranks(rows, func(r ConfidenceRow) float64 { return -r.Similarity })
	errRank := ranks(rows, func(r ConfidenceRow) float64 { return r.RelErr })
	var d2 float64
	for i := range rows {
		d := simRank[i] - errRank[i]
		d2 += d * d
	}
	return 1 - 6*d2/float64(n*(n*n-1))
}

func ranks(rows []ConfidenceRow, key func(ConfidenceRow) float64) []float64 {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key(rows[idx[a]]) < key(rows[idx[b]]) })
	out := make([]float64, len(rows))
	for rank, i := range idx {
		out[i] = float64(rank)
	}
	return out
}
