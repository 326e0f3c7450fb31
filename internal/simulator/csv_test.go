package simulator

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
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

// TestCSVPinnedDigest pins a small campaign's export to the byte: three
// architectures × {1, 2, 8} servers on the GPU class (CIFAR-10) and on the
// E5-2630 CPU class (Tiny ImageNet), seed 1. The digest was recorded before
// the simulator moved onto costmodel's shared step-time terms; any change
// to the cost model, the noise stream or the CSV layout moves it.
func TestCSVPinnedDigest(t *testing.T) {
	const want = "b1eb416506e97dd324d79ff27e2458fd0235638c14527fe0b6bd2671c0bd3af6"
	sim := New(1, Options{})
	var points []DataPoint
	for _, c := range []struct {
		d    dataset.Dataset
		spec cluster.ServerSpec
	}{
		{dataset.CIFAR10(), cluster.SpecGPUP100()},
		{dataset.TinyImageNet(), cluster.SpecCPUE52630()},
	} {
		pts, err := sim.RunCampaign(CampaignSpec{
			Models:       []string{"resnet18", "mobilenet_v3_large", "vgg16"},
			Dataset:      c.d,
			ServerSpec:   c.spec,
			ServerCounts: []int{1, 2, 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts...)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("campaign CSV sha256 = %s, want %s", got, want)
	}
}
