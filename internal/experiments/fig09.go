package experiments

import (
	"fmt"

	"predictddl/internal/dataset"
	"predictddl/internal/ernest"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// Fig09Row compares PredictDDL and Ernest on one Table-II workload: the
// mean predicted/actual ratio (closer to 1 is better, the paper's Fig. 9
// presentation) and the mean relative error of each system on the
// workload's held-out points.
type Fig09Row struct {
	Dataset  string
	Workload string
	// PredictDDLRatio and ErnestRatio are mean(predicted/actual).
	PredictDDLRatio, ErnestRatio float64
	// PredictDDLRelErr and ErnestRelErr are mean(|pred−actual|/actual).
	PredictDDLRelErr, ErnestRelErr float64
}

// String formats the row.
func (r Fig09Row) String() string {
	return fmt.Sprintf("%-14s %-20s PredictDDL ratio %6.3f (err %5.1f%%) | Ernest ratio %6.3f (err %6.1f%%)",
		r.Dataset, r.Workload, r.PredictDDLRatio, 100*r.PredictDDLRelErr, r.ErnestRatio, 100*r.ErnestRelErr)
}

// Fig09Summary aggregates the paper's headline numbers.
type Fig09Summary struct {
	// PredictDDLMeanRelErr is the paper's "8% average relative error".
	PredictDDLMeanRelErr float64
	// ErnestMeanRelErr is the black-box baseline's error.
	ErnestMeanRelErr float64
	// Improvement is Ernest/PredictDDL (paper: 9.8x).
	Improvement float64
}

// String formats the summary.
func (s Fig09Summary) String() string {
	return fmt.Sprintf("mean relative error: PredictDDL %.1f%% vs Ernest %.1f%% → %.1fx lower",
		100*s.PredictDDLMeanRelErr, 100*s.ErnestMeanRelErr, s.Improvement)
}

// Fig09 reproduces Fig. 9a (CIFAR-10) and 9b (Tiny-ImageNet): both systems
// are trained on an 80/20 split of the campaign; PredictDDL sees the GHN
// embedding while Ernest — a black box — sees only the machine count, so
// it averages across workloads (§IV-B1).
func Fig09(lab *Lab) ([]Fig09Row, Fig09Summary, error) {
	var rows []Fig09Row
	var pddlErrs, ernestErrs []float64

	type dsCase struct {
		d         dataset.Dataset
		workloads []string
	}
	for _, c := range []dsCase{
		{lab.CIFAR10(), TableIICIFAR10()},
		{lab.TinyImageNet(), TableIITinyImageNet()},
	} {
		points, err := lab.Campaign(c.d)
		if err != nil {
			return nil, Fig09Summary{}, err
		}
		g, err := lab.GHN(c.d)
		if err != nil {
			return nil, Fig09Summary{}, err
		}
		embeddings, err := embedModels(g, points, c.d.GraphConfig())
		if err != nil {
			return nil, Fig09Summary{}, err
		}
		rng := tensor.NewRNG(lab.Seed + 109)
		trainIdx, testIdx := splitByRNG(len(points), 0.8, rng)
		trainPts, testPts := takePoints(points, trainIdx), takePoints(points, testIdx)

		// PredictDDL: polynomial regression over [embedding ‖ cluster].
		xTrain, yTrain, err := buildDesign(trainPts, featGHN, embeddings)
		if err != nil {
			return nil, Fig09Summary{}, err
		}
		pddl := regress.NewLogTarget(regress.NewPolynomialRegression(2))
		if err := pddl.Fit(xTrain, yTrain); err != nil {
			return nil, Fig09Summary{}, err
		}

		// Ernest: one black-box scaling model over the mixed campaign.
		ern, err := ernestTrainPoints(trainPts)
		if err != nil {
			return nil, Fig09Summary{}, err
		}

		for _, w := range c.workloads {
			wPts := filterModel(testPts, w)
			if len(wPts) == 0 {
				wPts = filterModel(trainPts, w) // tiny test campaigns
			}
			if len(wPts) == 0 {
				return nil, Fig09Summary{}, fmt.Errorf("experiments: workload %q missing from campaign", w)
			}
			var pPred, ePred, actual []float64
			for _, p := range wPts {
				// Same layout buildDesign produces: [cluster ‖ embedding].
				feats := tensor.Concat(p.ClusterFeatures, embeddings[p.Model])
				pv, err := pddl.Predict(feats)
				if err != nil {
					return nil, Fig09Summary{}, err
				}
				ev, err := ern.Predict(p.NumServers)
				if err != nil {
					return nil, Fig09Summary{}, err
				}
				pPred = append(pPred, pv)
				ePred = append(ePred, ev)
				actual = append(actual, p.Seconds)
			}
			row := Fig09Row{
				Dataset:          c.d.Name,
				Workload:         w,
				PredictDDLRatio:  regress.RelativeRatio(pPred, actual),
				ErnestRatio:      regress.RelativeRatio(ePred, actual),
				PredictDDLRelErr: regress.MeanRelativeError(pPred, actual),
				ErnestRelErr:     regress.MeanRelativeError(ePred, actual),
			}
			rows = append(rows, row)
			pddlErrs = append(pddlErrs, row.PredictDDLRelErr)
			ernestErrs = append(ernestErrs, row.ErnestRelErr)
		}
	}

	sum := Fig09Summary{
		PredictDDLMeanRelErr: tensor.Mean(pddlErrs),
		ErnestMeanRelErr:     tensor.Mean(ernestErrs),
	}
	if sum.PredictDDLMeanRelErr > 0 {
		sum.Improvement = sum.ErnestMeanRelErr / sum.PredictDDLMeanRelErr
	}
	return rows, sum, nil
}

// ernestTrainPoints fits Ernest on a campaign's (machines, seconds)
// columns: the black box sees nothing else of a point.
func ernestTrainPoints(points []simulator.DataPoint) (*ernest.Model, error) {
	machines := make([]int, len(points))
	seconds := make([]float64, len(points))
	for i, p := range points {
		machines[i], seconds[i] = p.NumServers, p.Seconds
	}
	var m ernest.Model
	if err := m.Fit(machines, seconds); err != nil {
		return nil, err
	}
	return &m, nil
}
