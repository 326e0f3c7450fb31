package cluster

import (
	"fmt"
	"math"
)

// Server is one machine in a cluster together with its current load state,
// as reported by the Cluster Resource Collector.
type Server struct {
	Spec ServerSpec
	// CPUUtil and GPUUtil are current utilizations in [0, 1]; the available
	// capacity is (1 − util).
	CPUUtil, GPUUtil float64
	// AvailableCores is the number of schedulable cores; 0 means all.
	AvailableCores int
	// DiskLoad is the fraction of disk throughput already consumed.
	DiskLoad float64
}

// NewServer returns an idle server of the given class.
func NewServer(spec ServerSpec) Server { return Server{Spec: spec} }

// EffectiveCores returns the number of usable cores under the current load.
func (s Server) EffectiveCores() int {
	if s.AvailableCores > 0 && s.AvailableCores < s.Spec.Cores {
		return s.AvailableCores
	}
	return s.Spec.Cores
}

// RAMPerCore implements Eq. 1 of the paper: RAM' = RAM / |cores|.
func (s Server) RAMPerCore() float64 {
	return float64(s.Spec.RAMBytes) / float64(s.Spec.Cores)
}

// AvailableRAM implements Eq. 2: the sum of RAM' over the usable cores.
func (s Server) AvailableRAM() float64 {
	return s.RAMPerCore() * float64(s.EffectiveCores())
}

// AvailableGFLOPS scales peak throughput by the unused capacity of the
// relevant processor (GPU when present, CPU otherwise) and, for CPU-only
// machines, by the fraction of usable cores — the same per-core
// transformation the paper applies to RAM and disk.
func (s Server) AvailableGFLOPS() float64 {
	if s.Spec.HasGPU() {
		return s.Spec.PeakGFLOPS() * (1 - clamp01(s.GPUUtil))
	}
	coreFrac := float64(s.EffectiveCores()) / float64(s.Spec.Cores)
	return s.Spec.CPUGFLOPS * coreFrac * (1 - clamp01(s.CPUUtil))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Cluster is an ordered set of servers participating in one training job.
type Cluster struct {
	Servers []Server
}

// Homogeneous returns a cluster of n idle servers of the same class.
func Homogeneous(n int, spec ServerSpec) Cluster {
	c := Cluster{Servers: make([]Server, n)}
	for i := range c.Servers {
		c.Servers[i] = NewServer(spec)
	}
	return c
}

// Size returns the number of servers.
func (c Cluster) Size() int { return len(c.Servers) }

// Validate checks the cluster is non-empty with valid specs.
func (c Cluster) Validate() error {
	if len(c.Servers) == 0 {
		return fmt.Errorf("cluster: empty cluster")
	}
	for i, s := range c.Servers {
		if err := s.Spec.Validate(); err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
	}
	return nil
}

// TotalGFLOPS sums available compute throughput over servers.
func (c Cluster) TotalGFLOPS() float64 {
	var t float64
	for _, s := range c.Servers {
		t += s.AvailableGFLOPS()
	}
	return t
}

// TotalRAM sums available RAM (Eq. 2 aggregated over servers).
func (c Cluster) TotalRAM() float64 {
	var t float64
	for _, s := range c.Servers {
		t += s.AvailableRAM()
	}
	return t
}

// TotalCores sums usable cores.
func (c Cluster) TotalCores() int {
	var t int
	for _, s := range c.Servers {
		t += s.EffectiveCores()
	}
	return t
}

// NumGPUs counts accelerators across servers.
func (c Cluster) NumGPUs() int {
	var t int
	for _, s := range c.Servers {
		t += s.Spec.GPUs
	}
	return t
}

// MinNICGbps returns the slowest interconnect in the cluster, which bounds
// the allreduce ring bandwidth.
func (c Cluster) MinNICGbps() float64 {
	if len(c.Servers) == 0 {
		return 0
	}
	m := c.Servers[0].Spec.NICGbps
	for _, s := range c.Servers[1:] {
		if s.Spec.NICGbps < m {
			m = s.Spec.NICGbps
		}
	}
	return m
}

// MinServerGFLOPS returns the least-capable server's available throughput.
// Synchronous data-parallel training is paced by its slowest participant,
// so this is a first-class predictor input for heterogeneous clusters.
func (c Cluster) MinServerGFLOPS() float64 {
	if len(c.Servers) == 0 {
		return 0
	}
	m := c.Servers[0].AvailableGFLOPS()
	for _, s := range c.Servers[1:] {
		if g := s.AvailableGFLOPS(); g < m {
			m = g
		}
	}
	return m
}

// FeatureNames labels the entries of Features, in order.
func FeatureNames() []string {
	return []string{
		"num_servers",
		"total_gflops",
		"min_server_gflops",
		"total_ram_gb",
		"total_cores",
		"num_gpus",
		"min_nic_gbps",
		"log_num_servers",
		"inv_num_servers",
	}
}

// Features returns the cluster descriptor vector the Inference Engine
// concatenates with the DNN embedding (§III-C). The log and reciprocal
// server-count terms let linear models express the classic parallel-scaling
// shape (serial fraction + per-node overhead).
func (c Cluster) Features() []float64 {
	n := float64(c.Size())
	inv := 0.0
	logn := 0.0
	if n > 0 {
		inv = 1 / n
		logn = math.Log(n)
	}
	return []float64{
		n,
		c.TotalGFLOPS(),
		c.MinServerGFLOPS(),
		c.TotalRAM() / float64(1<<30),
		float64(c.TotalCores()),
		float64(c.NumGPUs()),
		c.MinNICGbps(),
		logn,
		inv,
	}
}
