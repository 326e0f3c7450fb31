package main

import (
	"math"
	"sort"
	"time"

	"predictddl/internal/tensor"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of ascending-sorted samples
// by the nearest-rank rule, so the value is always one that was observed.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func meanInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// usOf converts nanoseconds to microseconds.
func usOf(ns float64) float64 { return ns / 1e3 }

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s from a cumulative table.
// math/rand's Zipf needs s > 1; the churn workload wants exactly s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank maps a uniform draw u ∈ [0,1) to a rank.
func (z *zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// poissonArrivals returns the due times, as offsets from the start, of a
// Poisson process of the given rate over dur: exponential gaps drawn from rng.
func poissonArrivals(rng *tensor.RNG, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, due)
	}
}
