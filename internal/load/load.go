// Package load is PredictDDL's load-generation library (DESIGN.md §12):
// seeded open-loop (Poisson arrival) and closed-loop (fixed concurrency)
// request schedules over mixed serving scenarios, a runner that drives
// them against a live controller, and the BENCH_serve.json report with its
// status-contract tally and /v1/metrics cross-check. It is not a
// performance gate: bench/ measures each serving layer and composes them
// into the end-to-end numbers that gate regressions.
//
// The design contract mirrors the repo's determinism discipline: a
// schedule — arrival offsets, scenario sequence, and every request body —
// is a pure function of its seed and config, materialized before the run
// starts. Two runs with the same seed issue byte-identical request
// sequences, so differences between two BENCH_serve.json artifacts are
// attributable to the server, never to the generator.
package load

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind names one serving scenario in the mix.
type Kind string

// The scenario vocabulary. Each kind exercises a different admission or
// serving path and carries the status the server is contracted to return
// for it (DESIGN.md §8).
const (
	// KindZoo posts a zoo-architecture /v1/predict — the warm path: after
	// the first hit per model the embedding comes from the cache.
	KindZoo Kind = "zoo"
	// KindBatch posts a small mixed /v1/predict/batch.
	KindBatch Kind = "batch"
	// KindCustom posts a /v1/predict with a random custom graph spec —
	// always a cold embed (every sampled graph has a distinct fingerprint).
	KindCustom Kind = "custom"
	// KindNotFound posts an unknown dataset; the contract answer is 404.
	KindNotFound Kind = "notfound"
	// KindOversized posts a body above the server's admission cap; the
	// contract answer is 413.
	KindOversized Kind = "oversized"
	// KindGateway posts a warm predict for a dataset drawn from
	// ScheduleConfig.GatewayDatasets — names chosen to span distinct
	// gateway shards, so a blend with gateway weight exercises the
	// consistent-hash fan-out across ≥ 2 replicas instead of pinning all
	// traffic to one shard's dataset.
	KindGateway Kind = "gateway"
)

// kinds lists every scenario in canonical order — the order mixes are
// normalized to, independent of how the user spelled the -mix flag.
func kinds() []Kind {
	return []Kind{KindZoo, KindBatch, KindCustom, KindNotFound, KindOversized, KindGateway}
}

// MixEntry is one scenario weight.
type MixEntry struct {
	Kind   Kind    `json:"kind"`
	Weight float64 `json:"weight"`
}

// Mix is a weighted scenario blend in canonical kind order. Weights are
// relative (they need not sum to 1).
type Mix []MixEntry

// DefaultMix leans heavily on the hot zoo path, keeps a steady trickle of
// cold custom graphs, and exercises both rejection paths.
func DefaultMix() Mix {
	return Mix{
		{KindZoo, 70},
		{KindBatch, 10},
		{KindCustom, 10},
		{KindNotFound, 5},
		{KindOversized, 5},
	}
}

// ParseMix parses "zoo=70,batch=10,custom=10,notfound=5,oversized=5".
// Omitted kinds get weight 0; at least one weight must be positive. The
// result is always in canonical kind order, so two spellings of the same
// blend build identical schedules.
func ParseMix(s string) (Mix, error) {
	weights := map[Kind]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("load: mix entry %q is not kind=weight", part)
		}
		k := Kind(strings.TrimSpace(name))
		if !validKind(k) {
			return nil, fmt.Errorf("load: unknown scenario kind %q (have %v)", k, kinds())
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("load: mix weight for %s: %w", k, err)
		}
		if w < 0 {
			return nil, fmt.Errorf("load: mix weight for %s is negative", k)
		}
		if _, dup := weights[k]; dup {
			return nil, fmt.Errorf("load: scenario %s listed twice", k)
		}
		weights[k] = w
	}
	var m Mix
	total := 0.0
	for _, k := range kinds() {
		m = append(m, MixEntry{Kind: k, Weight: weights[k]})
		total += weights[k]
	}
	if total <= 0 {
		return nil, fmt.Errorf("load: mix has no positive weight")
	}
	return m, nil
}

func validKind(k Kind) bool {
	for _, v := range kinds() {
		if v == k {
			return true
		}
	}
	return false
}

// StatusCount is one entry of a status-code breakdown. Code is the HTTP
// status as a string, or "transport" for requests that never produced a
// response (dial refused, connection reset mid-body).
type StatusCount struct {
	Code  string `json:"code"`
	Count int    `json:"count"`
}

// countStatuses folds samples into a sorted status breakdown.
func countStatuses(samples []Sample) []StatusCount {
	byCode := map[string]int{}
	for _, s := range samples {
		byCode[s.StatusKey()]++
	}
	codes := make([]string, 0, len(byCode))
	for code := range byCode {
		codes = append(codes, code)
	}
	sort.Strings(codes) // stable report bytes across identical runs
	out := make([]StatusCount, len(codes))
	for i, code := range codes {
		out[i] = StatusCount{Code: code, Count: byCode[code]}
	}
	return out
}
