package simulator

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"predictddl/internal/cluster"
)

// csvHeader is the fixed column layout of a campaign export. The
// cluster-feature columns carry the cluster.FeatureNames() vector.
func csvHeader() []string {
	base := []string{
		"model", "dataset", "num_servers", "server_spec",
		"batch_per_server", "epochs",
		"num_layers", "num_params", "flops", "num_nodes", "seconds",
	}
	return append(base, cluster.FeatureNames()...)
}

// WriteCSV exports campaign points, one row per measurement, for analysis
// outside the program (ddlbench -dump-campaign).
func WriteCSV(w io.Writer, points []DataPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader()); err != nil {
		return fmt.Errorf("simulator: csv header: %w", err)
	}
	featureCols := len(cluster.FeatureNames())
	for i, p := range points {
		if len(p.ClusterFeatures) != featureCols {
			return fmt.Errorf("simulator: point %d has %d cluster features, want %d", i, len(p.ClusterFeatures), featureCols)
		}
		rec := []string{
			p.Model, p.Dataset, strconv.Itoa(p.NumServers), p.ServerSpecName,
			strconv.Itoa(p.BatchPerServer), strconv.Itoa(p.Epochs),
			strconv.Itoa(p.NumLayers),
			strconv.FormatInt(p.NumParams, 10),
			strconv.FormatInt(p.FLOPs, 10),
			strconv.Itoa(p.NumNodes),
			strconv.FormatFloat(p.Seconds, 'g', -1, 64),
		}
		for _, f := range p.ClusterFeatures {
			rec = append(rec, strconv.FormatFloat(f, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("simulator: csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
