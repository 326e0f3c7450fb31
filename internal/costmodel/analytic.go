package costmodel

import (
	"fmt"

	"predictddl/internal/cluster"
	"predictddl/internal/graph"
)

// The analytic feature schema is the gray-box alternative to the GHN
// embedding: the scalar quantities the cost model consumes (DNN FLOPs,
// parameters, graph size) concatenated with the cluster descriptor vector.
// Backends declaring regress.FeatureAnalytic are fitted and served on this
// schema instead of [embedding ‖ cluster]; it is a pure function of
// (graph, cluster), so analytic backends never need a GHN at prediction
// time.

// graphFeatureNames labels the DNN-derived entries that precede the cluster
// descriptors in the analytic schema.
var graphFeatureNames = []string{"flops", "params", "num_nodes", "num_layers"}

// AnalyticFeatureNames labels the entries of AnalyticFeatures, in order:
// the graph-derived scalars first, then cluster.FeatureNames().
func AnalyticFeatureNames() []string {
	return append(append([]string(nil), graphFeatureNames...), cluster.FeatureNames()...)
}

// NumAnalyticFeatures returns the analytic schema's width.
func NumAnalyticFeatures() int {
	return len(graphFeatureNames) + len(cluster.FeatureNames())
}

// AnalyticIndex returns the position of the named analytic feature, or -1
// when the name is unknown. Consumers resolve positions by name so a schema
// reordering cannot silently misroute a feature.
func AnalyticIndex(name string) int {
	for i, n := range AnalyticFeatureNames() {
		if n == name {
			return i
		}
	}
	return -1
}

// AnalyticFeatures assembles one analytic feature row from the graph scalars
// and a cluster descriptor vector (cluster.Features()).
func AnalyticFeatures(flops, params int64, nodes, layers int, clusterFeatures []float64) ([]float64, error) {
	if got, want := len(clusterFeatures), len(cluster.FeatureNames()); got != want {
		return nil, fmt.Errorf("costmodel: analytic features need %d cluster descriptors, got %d", want, got)
	}
	out := make([]float64, 0, NumAnalyticFeatures())
	out = append(out, float64(flops), float64(params), float64(nodes), float64(layers))
	out = append(out, clusterFeatures...)
	return out, nil
}

// AnalyticFeaturesFor builds the analytic row for a concrete (graph, cluster)
// pair — the serving-path entry point.
func AnalyticFeaturesFor(g *graph.Graph, c cluster.Cluster) ([]float64, error) {
	if g == nil {
		return nil, fmt.Errorf("costmodel: analytic features: nil graph")
	}
	return AnalyticFeatures(g.TotalFLOPs(), g.TotalParams(), g.NumNodes(), g.NumLayers(), c.Features())
}
