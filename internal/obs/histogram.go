package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets returns the default bucket upper bounds for latency
// histograms, in seconds: a fixed 100 µs – 10 s exponential ladder. The
// bounds are deterministic constants — never derived from observed data —
// so identical request sequences always produce identical bucket counts.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// SizeBuckets returns power-of-two bucket bounds for count-valued
// histograms (batch sizes, frame lengths) up to max. max below 1 yields
// the single bucket {1}.
func SizeBuckets(max int) []float64 {
	var out []float64
	for b := 1; ; b *= 2 {
		out = append(out, float64(b))
		if b >= max {
			return out
		}
	}
}

// Histogram counts observations into fixed buckets. Bucket i holds
// observations v with v <= bounds[i] (and v > bounds[i-1]); one implicit
// overflow bucket catches everything above the last bound. Observe is
// lock-free and allocation-free: one binary search over an immutable bounds
// slice plus two atomic adds.
//
// The sum is kept as atomic float64 bits updated by CAS — contended only
// under extreme observation rates, and never blocking readers.
type Histogram struct {
	bounds  []float64 // immutable after construction, sorted ascending
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram over the given bounds (nil selects
// LatencyBuckets). Bounds are copied and must be sorted ascending.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s returns the first bound >= v for exact matches and
	// the insertion point otherwise — exactly the "v <= bounds[i]" bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Time returns a stop function that records the elapsed time (on clock)
// between the Time call and the stop call:
//
//	defer hist.Time(clock)()
func (h *Histogram) Time(clock Clock) func() {
	start := clock.Now()
	return func() { h.ObserveDuration(Since(clock, start)) }
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot captures the histogram. Buckets are read low-to-high without a
// lock; a racing Observe may appear in the sum but not yet a bucket (or
// vice versa) — an acceptable snapshot skew for monitoring, and absent
// entirely in quiesced tests.
func (h *Histogram) snapshot(name string) HistogramValue {
	hv := HistogramValue{
		Name:    name,
		Sum:     h.Sum(),
		Buckets: make([]BucketValue, len(h.counts)),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		hv.Count += n
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		hv.Buckets[i] = BucketValue{UpperBound: ub, Count: n}
	}
	hv.Overflow = hv.Buckets[len(hv.Buckets)-1].Count
	return hv
}

// HistogramValue is a histogram in a snapshot. Buckets are non-cumulative
// (each holds only its own range's count) and include the +Inf overflow
// bucket last.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketValue `json:"buckets"`
	// Overflow is the +Inf bucket's count surfaced as a first-class field:
	// observations above the last finite bound, where quantile estimates
	// saturate. A non-zero overflow on a latency histogram means reported
	// upper quantiles understate reality (the server is beyond its bucket
	// ladder — overloaded, for a latency metric), so /v1/metrics consumers
	// and BENCH_serve.json can flag it without digging through buckets.
	Overflow uint64 `json:"overflow"`
}

// BucketValue is one histogram bucket. The +Inf upper bound serializes as
// the string "+Inf" via MarshalJSON (JSON has no infinity literal).
type BucketValue struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Mean returns the mean observed value (0 with no observations).
func (hv HistogramValue) Mean() float64 {
	if hv.Count == 0 {
		return 0
	}
	return hv.Sum / float64(hv.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the bucket containing the target rank — the standard fixed-bucket
// estimator. Values in the overflow bucket are reported as the last finite
// bound (the estimate saturates rather than inventing an upper bound).
// Returns 0 with no observations.
//
// A saturated result silently understates the true quantile; consumers
// that must distinguish "p99 really is 10s" from "p99 is somewhere above
// the bucket ladder" use QuantileSaturated instead.
func (hv HistogramValue) Quantile(q float64) float64 {
	v, _ := hv.QuantileSaturated(q)
	return v
}

// QuantileSaturated is Quantile plus an explicit saturation mark: the
// second return is true when the target rank lands in the +Inf overflow
// bucket, i.e. the returned value is the last finite bound acting as a
// floor on the true quantile rather than an estimate of it. An overloaded
// server's flat "p99 = 10s" readings carry saturated=true, so dashboards
// and ddlload's report can flag them instead of comparing a clamp against
// a clamp.
func (hv HistogramValue) QuantileSaturated(q float64) (v float64, saturated bool) {
	if hv.Count == 0 || q <= 0 {
		return 0, false
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(hv.Count)
	var seen float64
	lower := 0.0
	for _, b := range hv.Buckets {
		upper := b.UpperBound
		if math.IsInf(upper, 1) {
			// The rank reaches the overflow bucket: saturate at the last
			// finite bound and say so.
			return lower, true
		}
		next := seen + float64(b.Count)
		if next >= rank {
			if b.Count == 0 {
				return upper, false
			}
			return lower + (upper-lower)*(rank-seen)/float64(b.Count), false
		}
		seen = next
		lower = upper
	}
	return lower, false
}
