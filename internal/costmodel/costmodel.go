// Package costmodel is the one analytical model of a data-parallel training
// step, in the style of Paleo (Qi et al., ICLR'17 — reference [38] of the
// paper): slowest-server compute, plus ring all-reduce, plus framework
// overhead. The simulator adds what only the ground truth knows (op-mix
// efficiency, NFS stalls, noise); the regress roofline reads the terms off
// the analytic feature schema; Paleo is the paper's analytical baseline.
// It imports only cluster, dataset and graph, so predictors share the
// physics without importing the simulator that generates their data.
package costmodel

import (
	"fmt"
	"math"

	"predictddl/internal/cluster"
)

// BatchPerServer and Epochs are the training loop every campaign runs: the
// paper's per-server minibatch of 128 over 10 epochs.
const (
	BatchPerServer = 128
	Epochs         = 10
)

const (
	hopLatency    = 50e-6   // seconds per ring all-reduce hop
	overlap       = 2.0 / 3 // share of step compute (the backward pass) that hides all-reduce
	dispatchPerOp = 8e-6    // seconds per graph node per forward or backward pass
	syncPerStep   = 2e-3    // data-parallel barrier, paid when more than one server takes part
)

// StepCompute returns one server's seconds for an optimizer step over batch
// samples of a DNN with flops forward FLOPs per sample, at eff of its gflops
// peak. Backward costs about twice forward, so a step is ~3x forward FLOPs.
func StepCompute(flops float64, batch int, gflops, eff float64) float64 {
	return 3 * flops * float64(batch) / (gflops * 1e9 * eff)
}

// SlowestStep returns StepCompute on the slowest server of c, which paces
// synchronous data-parallel steps; eff gives the achieved fraction of peak
// on a GPU or a CPU server.
func SlowestStep(flops float64, batch int, c cluster.Cluster, eff func(gpu bool) float64) (float64, error) {
	var slowest float64
	for _, srv := range c.Servers {
		gf := srv.AvailableGFLOPS()
		if gf <= 0 {
			return 0, fmt.Errorf("costmodel: server %q has no available compute", srv.Spec.Name)
		}
		if t := StepCompute(flops, batch, gf, eff(srv.Spec.HasGPU())); t > slowest {
			slowest = t
		}
	}
	return slowest, nil
}

// RingAllReduce returns the seconds a ring all-reduce of gradBytes takes
// across servers whose slowest NIC runs at nicGbps: each moves 2(n−1)/n of
// the data.
func RingAllReduce(servers int, gradBytes, nicGbps float64) float64 {
	if servers <= 1 {
		return 0
	}
	bw := nicGbps * 1e9 / 8 // bytes/sec
	return 2 * float64(servers-1) / float64(servers) * gradBytes / bw
}

// ExposedComm returns the all-reduce seconds per step that compute does not
// hide: the ring transfer plus 2(n−1) hop latencies, less the share of the
// step DDP's bucketed all-reduce overlaps with the backward pass.
func ExposedComm(compute float64, servers int, gradBytes, nicGbps float64) float64 {
	if servers <= 1 {
		return 0
	}
	comm := RingAllReduce(servers, gradBytes, nicGbps) + 2*float64(servers-1)*hopLatency
	return math.Max(0, comm-overlap*compute)
}

// Overhead returns the per-step framework cost: one dispatch per graph node
// each forward and backward, plus the barrier on more than one server.
func Overhead(nodes, servers int) float64 {
	overhead := 2 * float64(nodes) * dispatchPerOp
	if servers > 1 {
		overhead += syncPerStep
	}
	return overhead
}

// BaseEfficiency returns the achieved fraction of peak FLOPS before any
// op-mix correction: training kernels reach more of peak on GPUs.
func BaseEfficiency(gpu bool) float64 {
	if gpu {
		return 0.48
	}
	return 0.32
}
