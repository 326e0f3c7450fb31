package cluster

import (
	"math"
	"testing"
)

func TestBuiltinSpecsValid(t *testing.T) {
	for name, spec := range Specs() {
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", name, err)
		}
	}
	if len(SpecNames()) != 3 {
		t.Fatalf("want the 3 CloudLab machine classes, got %v", SpecNames())
	}
}

func TestLookupSpec(t *testing.T) {
	s, err := LookupSpec("cloudlab-p100")
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasGPU() || s.GPUs != 1 {
		t.Fatalf("p100 spec: %+v", s)
	}
	if _, err := LookupSpec("tpu-v5"); err == nil {
		t.Fatal("expected error for unknown spec")
	}
}

func TestSpecValidateRejectsBadValues(t *testing.T) {
	good := SpecCPUE52630()
	cases := []func(*ServerSpec){
		func(s *ServerSpec) { s.Name = "" },
		func(s *ServerSpec) { s.Cores = 0 },
		func(s *ServerSpec) { s.RAMBytes = 0 },
		func(s *ServerSpec) { s.CPUGFLOPS = 0 },
		func(s *ServerSpec) { s.GPUs = -1 },
		func(s *ServerSpec) { s.GPUs = 1; s.GPUGFLOPS = 0 },
		func(s *ServerSpec) { s.NICGbps = 0 },
	}
	for i, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPeakGFLOPSPrefersGPU(t *testing.T) {
	gpu := SpecGPUP100()
	if gpu.PeakGFLOPS() != gpu.GPUGFLOPS {
		t.Fatalf("GPU server peak = %v, want %v", gpu.PeakGFLOPS(), gpu.GPUGFLOPS)
	}
	cpu := SpecCPUE52650()
	if cpu.PeakGFLOPS() != cpu.CPUGFLOPS {
		t.Fatalf("CPU server peak = %v, want %v", cpu.PeakGFLOPS(), cpu.CPUGFLOPS)
	}
}

func TestRAMPerCoreEquation1(t *testing.T) {
	s := NewServer(SpecCPUE52630())
	want := float64(128<<30) / 16
	if got := s.RAMPerCore(); got != want {
		t.Fatalf("RAM' = %v, want %v", got, want)
	}
	// Eq. 2 with all cores available: AvailableRAM == RAM.
	if got := s.AvailableRAM(); got != float64(128<<30) {
		t.Fatalf("AvailableRAM = %v, want full RAM", got)
	}
	// Half the cores → half the RAM is counted.
	s.AvailableCores = 8
	if got := s.AvailableRAM(); got != float64(64<<30) {
		t.Fatalf("AvailableRAM with 8/16 cores = %v, want 64 GiB", got)
	}
}

func TestAvailableGFLOPSUnderLoad(t *testing.T) {
	s := NewServer(SpecCPUE52630())
	idle := s.AvailableGFLOPS()
	s.CPUUtil = 0.5
	if got := s.AvailableGFLOPS(); math.Abs(got-idle/2) > 1e-9 {
		t.Fatalf("50%% loaded CPU = %v, want %v", got, idle/2)
	}
	g := NewServer(SpecGPUP100())
	g.GPUUtil = 0.25
	if got := g.AvailableGFLOPS(); math.Abs(got-0.75*g.Spec.GPUGFLOPS) > 1e-9 {
		t.Fatalf("25%% loaded GPU = %v", got)
	}
	// Utilization outside [0,1] is clamped.
	g.GPUUtil = 7
	if got := g.AvailableGFLOPS(); got != 0 {
		t.Fatalf("overloaded GPU = %v, want 0", got)
	}
}

func TestHomogeneousCluster(t *testing.T) {
	c := Homogeneous(4, SpecGPUP100())
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.NumGPUs(); got != 4 {
		t.Fatalf("gpus = %d", got)
	}
	if got := c.TotalCores(); got != 80 {
		t.Fatalf("cores = %d", got)
	}
	if got := c.TotalGFLOPS(); math.Abs(got-4*9300) > 1e-9 {
		t.Fatalf("total gflops = %v", got)
	}
}

func TestEmptyClusterInvalid(t *testing.T) {
	if err := (Cluster{}).Validate(); err == nil {
		t.Fatal("empty cluster must be invalid")
	}
	if got := (Cluster{}).MinNICGbps(); got != 0 {
		t.Fatalf("empty MinNICGbps = %v", got)
	}
}

func TestClusterFeaturesShapeAndContent(t *testing.T) {
	c := Homogeneous(8, SpecCPUE52650())
	f := c.Features()
	names := FeatureNames()
	if len(f) != len(names) {
		t.Fatalf("features len %d != names len %d", len(f), len(names))
	}
	if f[0] != 8 {
		t.Fatalf("num_servers = %v", f[0])
	}
	if math.Abs(f[7]-math.Log(8)) > 1e-12 {
		t.Fatalf("log term = %v", f[7])
	}
	if math.Abs(f[8]-0.125) > 1e-12 {
		t.Fatalf("reciprocal term = %v", f[8])
	}
	if f[5] != 0 {
		t.Fatalf("CPU cluster reports %v GPUs", f[5])
	}
	if f[2] != f[1]/8 {
		t.Fatalf("min server gflops = %v, want total/8", f[2])
	}
}

func TestHeterogeneousClusterMinNIC(t *testing.T) {
	slow := SpecCPUE52650()
	slow.NICGbps = 1
	c := Cluster{Servers: []Server{NewServer(SpecGPUP100()), NewServer(slow)}}
	if got := c.MinNICGbps(); got != 1 {
		t.Fatalf("min NIC = %v, want 1", got)
	}
}
