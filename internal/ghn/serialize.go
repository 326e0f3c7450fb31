package ghn

import (
	"encoding/gob"
	"fmt"
	"io"

	"predictddl/internal/tensor"
)

// checkpoint is the on-disk format: the config plus every parameter tensor
// in Params() order.
type checkpoint struct {
	Config Config
	Names  []string
	Rows   []int
	Cols   []int
	Data   [][]float64
}

// Save writes the network's weights to w in gob format.
func (g *GHN) Save(w io.Writer) error {
	ck := checkpoint{Config: g.cfg}
	for _, p := range g.Params() {
		ck.Names = append(ck.Names, p.Name)
		ck.Rows = append(ck.Rows, p.W.Rows())
		ck.Cols = append(ck.Cols, p.W.Cols())
		ck.Data = append(ck.Data, tensor.CloneVec(p.W.Data()))
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("ghn: save: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save and returns the restored network.
func Load(r io.Reader) (*GHN, error) {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("ghn: load: %w", err)
	}
	g := New(ck.Config, tensor.NewRNG(0))
	params := g.Params()
	if len(params) != len(ck.Names) {
		return nil, fmt.Errorf("ghn: checkpoint has %d tensors, network has %d", len(ck.Names), len(params))
	}
	for i, p := range params {
		if p.Name != ck.Names[i] {
			return nil, fmt.Errorf("ghn: checkpoint tensor %d is %q, want %q", i, ck.Names[i], p.Name)
		}
		if p.W.Rows() != ck.Rows[i] || p.W.Cols() != ck.Cols[i] {
			return nil, fmt.Errorf("ghn: tensor %q shape %dx%d, checkpoint %dx%d",
				p.Name, p.W.Rows(), p.W.Cols(), ck.Rows[i], ck.Cols[i])
		}
		copy(p.W.Data(), ck.Data[i])
	}
	return g, nil
}
