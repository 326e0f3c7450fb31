package experiments

import (
	"fmt"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// BaselineRow is one row of the extended three-way comparison: PredictDDL
// against both baseline families the paper discusses — Ernest (black box,
// §V-A) and a Paleo-style analytical model (§V-B).
type BaselineRow struct {
	Workload string
	// Mean relative errors per system on the workload's held-out points.
	PredictDDL, Ernest, Paleo float64
}

// String formats the row.
func (r BaselineRow) String() string {
	return fmt.Sprintf("%-20s PredictDDL %6.1f%% | Ernest %7.1f%% | Paleo %7.1f%%",
		r.Workload, 100*r.PredictDDL, 100*r.Ernest, 100*r.Paleo)
}

// ThreeWayBaselines runs the CIFAR-10 Table-II comparison with Paleo added
// as a third column. Expected shape: PredictDDL < Paleo < Ernest — the
// analytical model knows the physics but not the per-architecture achieved
// efficiency; the black box knows neither.
func ThreeWayBaselines(lab *Lab) ([]BaselineRow, error) {
	d := lab.CIFAR10()
	points, err := lab.Campaign(d)
	if err != nil {
		return nil, err
	}
	g, err := lab.GHN(d)
	if err != nil {
		return nil, err
	}
	embeddings, err := embedModels(g, points, d.GraphConfig())
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(lab.Seed + 300)
	trainIdx, testIdx := splitByRNG(len(points), 0.8, rng)
	trainPts, testPts := takePoints(points, trainIdx), takePoints(points, testIdx)

	xTrain, yTrain, err := buildDesign(trainPts, featGHN, embeddings)
	if err != nil {
		return nil, err
	}
	pddl := regress.NewLogTarget(regress.NewPolynomialRegression(2))
	if err := pddl.Fit(xTrain, yTrain); err != nil {
		return nil, err
	}
	ern, err := ernestTrainPoints(trainPts)
	if err != nil {
		return nil, err
	}
	pal := costmodel.Paleo{Dataset: d}
	spec := lab.SpecFor(d)

	var rows []BaselineRow
	for _, w := range TableIICIFAR10() {
		wPts := filterModel(testPts, w)
		if len(wPts) == 0 {
			wPts = filterModel(trainPts, w)
		}
		if len(wPts) == 0 {
			return nil, fmt.Errorf("experiments: workload %q missing", w)
		}
		gr, err := graph.Build(w, d.GraphConfig())
		if err != nil {
			return nil, err
		}
		var pddlPred, ernPred, palPred, actual []float64
		for _, p := range wPts {
			pv, err := pddl.Predict(tensor.Concat(p.ClusterFeatures, embeddings[p.Model]))
			if err != nil {
				return nil, err
			}
			ev, err := ern.Predict(p.NumServers)
			if err != nil {
				return nil, err
			}
			lv, err := pal.Predict(gr, cluster.Homogeneous(p.NumServers, spec))
			if err != nil {
				return nil, err
			}
			pddlPred = append(pddlPred, pv)
			ernPred = append(ernPred, ev)
			palPred = append(palPred, lv)
			actual = append(actual, p.Seconds)
		}
		rows = append(rows, BaselineRow{
			Workload:   w,
			PredictDDL: regress.MeanRelativeError(pddlPred, actual),
			Ernest:     regress.MeanRelativeError(ernPred, actual),
			Paleo:      regress.MeanRelativeError(palPred, actual),
		})
	}
	return rows, nil
}
