package costmodel

import (
	"fmt"
	"math"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/graph"
)

// paleoEfficiency is Paleo's "platform percent of peak", one achieved
// fraction of peak FLOPS for every architecture and server.
const paleoEfficiency = 0.4

// Paleo is the paper's analytical baseline (§V-B): this package's compute
// and ring all-reduce terms at one fixed efficiency, with no overlap and no
// overhead. It needs no training runs, but one efficiency constant cannot
// describe every architecture: the simulator's ground truth varies achieved
// efficiency with operation mix, which Paleo cannot see and the GHN
// embedding can.
type Paleo struct {
	// Dataset supplies sample counts for the epoch structure.
	Dataset dataset.Dataset
}

// Predict returns the analytical estimate, in seconds, for training g on c.
// It satisfies the Predictor interfaces of the sched and nas packages.
func (m Paleo) Predict(g *graph.Graph, c cluster.Cluster) (float64, error) {
	if g == nil {
		return 0, fmt.Errorf("costmodel: paleo: nil graph")
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if m.Dataset.NumImages <= 0 {
		return 0, fmt.Errorf("costmodel: paleo has no dataset")
	}
	n := c.Size()
	globalBatch := BatchPerServer * n
	iters := (m.Dataset.NumImages + globalBatch - 1) / globalBatch * Epochs

	compute, err := SlowestStep(float64(g.TotalFLOPs()), BatchPerServer, c, func(bool) float64 { return paleoEfficiency })
	if err != nil {
		return 0, err
	}
	comm := RingAllReduce(n, 4*float64(g.TotalParams()), c.MinNICGbps()) // fp32 gradients

	total := (compute + comm) * float64(iters)
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, fmt.Errorf("costmodel: paleo: non-finite estimate")
	}
	return total, nil
}
