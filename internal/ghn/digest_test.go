package ghn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// weightsDigest is SHA-256 over every parameter's float64 bits, in Params
// order.
func weightsDigest(g *GHN) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range g.Params() {
		for _, v := range p.W.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The oracle for "training kernels changed no bit": the digests below were
// generated at the commit before the tape path moved onto the blocked
// kernels and the step arena (PR 13's parent: Dot-per-row forward,
// row-at-a-time backward), on amd64. Reordering one floating-point addition
// anywhere in forward, backward or the batch reduction changes them.
// DefaultConfig covers virtual edges and normalization, which no benchmark
// workload turns on; BatchSize 1 covers trainBatch's straight-into-master
// route, which skips the gradient slots.
func TestTrainedWeightsDigest(t *testing.T) {
	cases := []struct {
		name            string
		cfg             Config
		batched, single string
	}{
		{"zero-config", Config{}, "84ec5cae48c1397e955c8eaa600b43ca14b3af97128e72e3ff30dba1de2041a2", "df89a87c17deea8cf4091b689bfd582934c8ba30251d4bafac0914a4c087d71e"},
		{"default-config", DefaultConfig(), "6c0281f4f31f1232216d9381c71e3be0cc9405f16566e6563d85193f76016536", "8958d75d43f4e52228ddfd691c1acec891558045c15c3385c5f90c13d9bcacbd"},
	}
	for _, c := range cases {
		for _, run := range []struct {
			batch, workers int
			want           string
		}{{4, 1, c.batched}, {4, 2, c.batched}, {1, 1, c.single}} {
			g, _, err := Train(c.cfg, TrainConfig{Graphs: 12, Epochs: 2, Seed: 5, BatchSize: run.batch, Parallelism: run.workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := weightsDigest(g); got != run.want {
				t.Errorf("%s, BatchSize %d, Parallelism %d: weights digest %s, want %s", c.name, run.batch, run.workers, got, run.want)
			}
		}
	}
}
