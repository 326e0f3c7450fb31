package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a canonical content hash of the graph: every field the
// GHN's forward pass can observe (operation types, output shapes, parameter
// and FLOP counts, and the exact adjacency structure) feeds the digest, while
// presentation-only fields (Name, Label) do not. Two graphs share a
// fingerprint iff they embed identically, which makes it the right key for
// content-addressed embedding caches — unlike Name, which silently collides
// when a modified graph reuses a zoo name and is empty for anonymous graphs.
//
// Edge insertion order is part of the content: message aggregation sums
// neighbor contributions in adjacency order, so reordered edges can perturb
// the embedding at floating-point precision and must not share a cache slot.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(len(g.Nodes)))
	for _, n := range g.Nodes {
		writeInt(int64(n.Op))
		writeInt(int64(n.OutChannels))
		writeInt(int64(n.OutH))
		writeInt(int64(n.OutW))
		writeInt(n.Params)
		writeInt(n.FLOPs)
	}
	for u := range g.Nodes {
		succs := g.OutNeighbors(u)
		writeInt(int64(len(succs)))
		for _, v := range succs {
			writeInt(int64(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
