// Package core wires PredictDDL together: the registry of per-dataset GHN
// models, the Inference Engine that maps (DNN embedding, cluster features)
// to training time, the Offline Trainer of Fig. 8, and the Controller that
// serves prediction requests over HTTP (Fig. 7).
package core

import (
	"sort"
	"sync"

	"predictddl/internal/ghn"
)

// GHNRegistry holds one trained GHN per dataset type (§III-E: "the
// GHN-based Workload Embeddings Generator selects the closest GHN model out
// of a set of pre-trained GHN models associated with different datasets").
// It is safe for concurrent use.
type GHNRegistry struct {
	mu     sync.RWMutex
	models map[string]*ghn.GHN
}

// NewGHNRegistry returns an empty registry.
func NewGHNRegistry() *GHNRegistry {
	return &GHNRegistry{models: make(map[string]*ghn.GHN)}
}

// Put registers (or replaces) the GHN for a dataset.
func (r *GHNRegistry) Put(dataset string, g *ghn.GHN) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[dataset] = g
}

// Has reports whether a dataset has a trained GHN.
func (r *GHNRegistry) Has(dataset string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.models[dataset]
	return ok
}

// Datasets returns the sorted dataset names with trained GHNs.
func (r *GHNRegistry) Datasets() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.datasetsLocked()
}

func (r *GHNRegistry) datasetsLocked() []string {
	out := make([]string, 0, len(r.models))
	for d := range r.models {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
