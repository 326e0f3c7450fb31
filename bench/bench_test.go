package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"predictddl/internal/obs"
	"predictddl/internal/tensor"
)

func TestPercentileIsNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestZipfFollowsOneOverRank(t *testing.T) {
	const n, draws = 64, 200000
	z := newZipf(n, 1.0)
	if z.rank(0) != 0 || z.rank(0.999999999) != n-1 {
		t.Fatalf("rank ends: %d, %d", z.rank(0), z.rank(0.999999999))
	}
	rng := tensor.NewRNG(3)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.rank(rng.Float64())]++
	}
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{0, 1, 7, 31} {
		want := draws / (float64(k+1) * h)
		if got := float64(counts[k]); math.Abs(got-want) > 0.1*want {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, got, want)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	const rate = 2000.0
	a := poissonArrivals(tensor.NewRNG(5), rate, 10*time.Second)
	b := poissonArrivals(tensor.NewRNG(5), rate, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d then %d arrivals", len(a), len(b))
	}
	if want := rate * 10; math.Abs(float64(len(a))-want) > 0.05*want {
		t.Errorf("%d arrivals in 10 s at %v/s", len(a), rate)
	}
	var sumSq float64
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under the same seed", i)
		}
		if i > 0 {
			if a[i] < a[i-1] {
				t.Fatalf("arrival %d is before its predecessor", i)
			}
			gap := (a[i] - a[i-1]).Seconds() * rate
			sumSq += gap * gap
		}
	}
	// Exponential gaps have a second moment of twice the squared mean; evenly
	// spaced ones would give 1.
	if m2 := sumSq / float64(len(a)-1); m2 < 1.8 || m2 > 2.2 {
		t.Errorf("gap second moment %.3f, want about 2 for a Poisson process", m2)
	}
}

func TestSpansSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Unix(0, 0)}
	rep := &obs.TraceReport{ID: "r1", TotalSeconds: 100e-6, Stages: []obs.StageTiming{{Name: "decode", Seconds: 10e-6}, {Name: "check", Seconds: 60e-6}}}
	got := tr.spans(nil, "r1", predictPath, time.Unix(0, 5000), 250*time.Microsecond, rep)
	byName := map[string]span{}
	for _, s := range got {
		if s.Trace != "r1" {
			t.Errorf("span %s carries trace %q", s.Name, s.Trace)
		}
		byName[s.Name] = s
	}
	if s := byName["handler"]; math.Abs(s.SelfUS-30) > 1e-9 || s.Parent != "client "+predictPath {
		t.Errorf("handler span %+v, want self 30 us under the client span", s)
	}
	if s := byName["transport"]; math.Abs(s.DurUS-150) > 1e-9 {
		t.Errorf("transport span %+v, want 150 us", s)
	}
	if s := byName["check"]; s.Parent != "handler" || math.Abs(s.StartUS-byName["decode"].StartUS-10) > 1e-9 {
		t.Errorf("check span %+v should follow decode under handler", s)
	}
}

// TestStreamIsAFunctionOfTheSeed: the same seed must generate the same
// requests, and another seed other ones, on every workload.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		if w == wlOffline {
			continue
		}
		e, err := setUp(context.Background(), smokeScale, w)
		if err != nil {
			t.Fatal(err)
		}
		a, b, other := e.streamSHA(w, 7), e.streamSHA(w, 7), e.streamSHA(w, 8)
		if err := e.close(); err != nil {
			t.Error(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 gave %s then %s", w, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
	e := newEnv(smokeScale)
	a, err := newOfflineJobs(e, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newOfflineJobs(e, 7)
	other, _ := newOfflineJobs(e, 8)
	same, differs := true, false
	for i := range a.jobs {
		same = same && a.jobs[i] == b.jobs[i]
		differs = differs || a.jobs[i] != other.jobs[i]
	}
	if !same || !differs {
		t.Errorf("offline_fit job order: same seed equal %v, other seed differs %v", same, differs)
	}
}

// TestSmoke drives every workload for a fifth of a second at smoke scale,
// tracing off and on, so the harness itself is exercised by `go test`
// (-short and -race included).
func TestSmoke(t *testing.T) {
	const window = 200 * time.Millisecond
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var o *outcome
			var err error
			if w == wlOffline {
				o, err = runOffline(smokeScale, 1, window)
			} else {
				o, err = runServing(context.Background(), smokeScale, w, 1, window)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, endToEnd, true)

			o, err = runTraced(context.Background(), smokeScale, w, 1, window, filepath.Join(t.TempDir(), "trace.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, perLayer, false)
		})
	}
}

func checkOutcome(t *testing.T, o *outcome, defs []metricDef, nonZero bool) {
	t.Helper()
	if o.attempted == 0 || o.failed != 0 {
		t.Errorf("attempted %d, failed %d: %v", o.attempted, o.failed, o.failures)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		// Under the race detector every request can miss the 5 ms limit.
		zeroOK := !nonZero || d.name == "slo_ok_frac"
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (nonZero && v < 0) || (v == 0 && !zeroOK) {
			t.Errorf("metric %s = %v (measured %v)", d.name, v, ok)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the names and units
// the program prints from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d is %v in BENCHMARK.json, %v in the code", kind, i, got[i], want[i])
			}
		}
	}
	match("end_to_end", decl.EndToEnd, endToEnd)
	match("per_layer", decl.PerLayer, perLayer)
}
