package predictddl

import (
	"testing"
)

func TestPredictorScheduler(t *testing.T) {
	p := sharedPredictor(t)
	s, err := p.NewScheduler(16, EDF)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *Graph {
		g, err := BuildModel(name, p.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rep, err := s.Simulate([]SchedJob{
		{ID: "small", Graph: mk("squeezenet1_1"), Deadline: 60},
		{ID: "mid", Graph: mk("resnet18"), Deadline: 120},
		{ID: "hopeless", Graph: mk("vgg16"), Deadline: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted < 2 {
		t.Fatalf("admitted %d of the feasible jobs", rep.Admitted)
	}
	if rep.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1 (the 0.5s-deadline job)", rep.Rejected)
	}
	// With a well-trained predictor most admitted deadlines are met.
	if rep.DeadlinesMet < rep.Admitted-1 {
		t.Fatalf("met %d/%d deadlines", rep.DeadlinesMet, rep.Admitted)
	}
}

func TestPredictorNASSearch(t *testing.T) {
	p := sharedPredictor(t)
	res, err := p.SearchArchitectures(NASOptions{
		Population:    6,
		Generations:   2,
		BudgetSeconds: 500,
		Seed:          3,
	}, func(g *Graph) float64 { return float64(g.Depth()) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Graph == nil || res.Best.PredictedSeconds > 500 {
		t.Fatalf("best = %+v", res.Best)
	}
	if res.Evaluated != 12 {
		t.Fatalf("evaluated %d", res.Evaluated)
	}
}

func TestAnalyticalBaseline(t *testing.T) {
	p := sharedPredictor(t)
	m := p.AnalyticalBaseline()
	g, err := BuildModel("resnet18", p.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := LookupServerSpec("cloudlab-p100")
	if err != nil {
		t.Fatal(err)
	}
	secs, err := m.Predict(g, Homogeneous(4, spec))
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Fatalf("paleo predicted %v", secs)
	}
	// Paleo needs no training: it works without any campaign, but the
	// learned engine should be closer to ground truth on depthwise-heavy
	// models (asserted in internal/costmodel tests).
}
