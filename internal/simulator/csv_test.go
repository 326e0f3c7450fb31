package simulator

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
)

func TestCSVRoundTrip(t *testing.T) {
	sim := New(1, Options{})
	points, err := sim.RunCampaign(CampaignSpec{
		Models:       []string{"resnet18", "vgg11"},
		Dataset:      dataset.CIFAR10(),
		ServerSpec:   cluster.SpecGPUP100(),
		ServerCounts: CountRange(1, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(points)+1 {
		t.Fatalf("got %d rows, want a header and %d points", len(recs), len(points))
	}
	col := map[string]int{}
	for j, name := range recs[0] {
		col[name] = j
	}
	first := col[cluster.FeatureNames()[0]]
	for i, p := range points {
		rec := recs[i+1]
		want := []string{p.Model, strconv.Itoa(p.NumServers), strconv.Itoa(p.NumLayers),
			strconv.FormatInt(p.NumParams, 10), strconv.FormatInt(p.FLOPs, 10)}
		for j, name := range []string{"model", "num_servers", "num_layers", "num_params", "flops"} {
			if rec[col[name]] != want[j] {
				t.Fatalf("point %d %s = %q, want %q", i, name, rec[col[name]], want[j])
			}
		}
		// Floats must survive the text form to the bit.
		floats := append([]float64{p.Seconds}, p.ClusterFeatures...)
		cells := append([]string{rec[col["seconds"]]}, rec[first:]...)
		if len(cells) != len(floats) {
			t.Fatalf("point %d has %d float cells, want %d", i, len(cells), len(floats))
		}
		for j, cell := range cells {
			if got, err := strconv.ParseFloat(cell, 64); err != nil || got != floats[j] {
				t.Fatalf("point %d float %d reads back as %v (%v), want %v", i, j, got, err, floats[j])
			}
		}
	}
}

func TestCSVEmptyCampaign(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("empty campaign wrote %d lines, want the header alone", got)
	}
}

func TestCSVRejectsBadInputs(t *testing.T) {
	bad := []DataPoint{{Model: "m", Seconds: 1, ClusterFeatures: []float64{1}}}
	if err := WriteCSV(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("short feature vector accepted")
	}
}
