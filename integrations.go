package predictddl

import (
	"predictddl/internal/costmodel"
	"predictddl/internal/nas"
	"predictddl/internal/sched"
	"predictddl/internal/simulator"
)

// Re-exported integration types: the deadline-aware scheduler and the
// cost-aware NAS search are the two downstream systems the paper motivates
// (§I and §III-A), and the Paleo-style analytical model is the second
// baseline family (§V-B).
type (
	// SchedJob is one training request for the deadline scheduler.
	SchedJob = sched.Job
	// SchedConfig sizes the managed partition.
	SchedConfig = sched.Config
	// SchedReport aggregates a scheduling simulation.
	SchedReport = sched.Report
	// SchedPolicy orders the pending queue (FIFO or EDF).
	SchedPolicy = sched.Policy
	// NASOptions configures a cost-aware architecture search.
	NASOptions = nas.Options
	// NASResult reports a finished search.
	NASResult = nas.Result
	// NASCandidate is one evaluated architecture.
	NASCandidate = nas.Candidate
	// NASObjective scores an architecture (higher is better).
	NASObjective = nas.Objective
	// PaleoModel is the analytical baseline predictor.
	PaleoModel = costmodel.Paleo
)

// Queue policies for NewScheduler.
const (
	FIFO = sched.FIFO
	EDF  = sched.EDF
)

// NewScheduler builds a deadline-aware scheduler over totalServers of the
// predictor's machine class. The predictor prices allocations; the
// ground-truth simulator supplies actual runtimes, so scheduling outcomes
// reflect real prediction error.
func (p *Predictor) NewScheduler(totalServers int, policy SchedPolicy) (*sched.Scheduler, error) {
	sim := simulator.New(1, simulator.Options{})
	oracle := func(g *Graph, c Cluster) (float64, error) {
		return sim.TrainingTime(simulator.Workload{
			Graph: g, Dataset: p.dataset, BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs,
		}, c)
	}
	return sched.New(sched.Config{
		TotalServers: totalServers,
		Spec:         p.spec,
		Policy:       policy,
	}, p.engine, oracle)
}

// SearchArchitectures runs cost-aware evolutionary NAS priced by this
// predictor. Zero-valued Cluster and GraphConfig fields default to an
// 8-server cluster of the predictor's machine class and the predictor's
// dataset shape.
func (p *Predictor) SearchArchitectures(opts NASOptions, objective NASObjective) (*NASResult, error) {
	if opts.Cluster.Size() == 0 {
		opts.Cluster = Homogeneous(8, p.spec)
	}
	if opts.GraphConfig == (GraphConfig{}) {
		opts.GraphConfig = p.dataset.GraphConfig()
	}
	s, err := nas.New(opts, p.engine, objective)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// AnalyticalBaseline returns a Paleo-style analytical predictor for the
// predictor's dataset, useful for baseline comparisons without any
// training data.
func (p *Predictor) AnalyticalBaseline() *PaleoModel { return &PaleoModel{Dataset: p.dataset} }
