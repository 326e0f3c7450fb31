package costmodel_test

import (
	"math"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/dataset"
	"predictddl/internal/graph"
	"predictddl/internal/simulator"
)

// A model is fitted on campaign rows (DataPoint.AnalyticFeatures) and served
// on request rows (AnalyticFeaturesFor); the two must agree to the bit.
func TestAnalyticRowsMatchCampaignRows(t *testing.T) {
	d := dataset.TinyImageNet()
	spec := cluster.SpecCPUE52630()
	points, err := simulator.New(1, simulator.Options{}).RunCampaign(simulator.CampaignSpec{
		Models: []string{"resnet18", "mobilenet_v3_large"}, Dataset: d, ServerSpec: spec, ServerCounts: []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		fromPoint, err := p.AnalyticFeatures()
		if err != nil {
			t.Fatal(err)
		}
		served, err := costmodel.AnalyticFeaturesFor(graph.MustBuild(p.Model, d.GraphConfig()), cluster.Homogeneous(p.NumServers, spec))
		if err != nil {
			t.Fatal(err)
		}
		if len(fromPoint) != costmodel.NumAnalyticFeatures() || len(served) != len(fromPoint) {
			t.Fatalf("%s×%d: widths %d and %d, schema %d", p.Model, p.NumServers, len(fromPoint), len(served), costmodel.NumAnalyticFeatures())
		}
		for i := range served {
			if math.Float64bits(served[i]) != math.Float64bits(fromPoint[i]) {
				t.Fatalf("%s×%d: %s = %v served, %v in the campaign", p.Model, p.NumServers, costmodel.AnalyticFeatureNames()[i], served[i], fromPoint[i])
			}
		}
	}
}

func TestAnalyticSchemaRejectsBadInputs(t *testing.T) {
	if i := costmodel.AnalyticIndex("warp_factor"); i != -1 {
		t.Fatalf("unknown feature resolved to %d", i)
	}
	if _, err := costmodel.AnalyticFeatures(1, 1, 1, 1, []float64{1}); err == nil {
		t.Fatal("short cluster descriptor accepted")
	}
	if _, err := costmodel.AnalyticFeaturesFor(nil, cluster.Homogeneous(1, cluster.SpecGPUP100())); err == nil {
		t.Fatal("nil graph accepted")
	}
}
