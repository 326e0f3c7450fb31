package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
)

const (
	clients       = 2                    // closed-loop clients, one connection each (nproc is 2 here)
	sloLimit      = 5 * time.Millisecond // a serving request later than this after its due time misses
	pipelineLimit = 5 * time.Second      // an offline repetition slower than this misses
	sampleEvery   = 16                   // custom-graph responses checked against the oracle: 1 in 16
	giveUp        = time.Second          // an open loop this far behind its schedule has lost it
)

// item is one prediction a request asks for, kept so the reply can be checked.
type item struct {
	expect uint64       // oracle bits; 0 when the graph is custom and checked by sample
	g      *graph.Graph // custom graph, nil for zoo items
	n      int
}

// request is one generated operation with its status contract.
type request struct {
	path  string
	body  []byte
	want  int // contract status
	batch bool
	items []item
}

// pending is a sampled custom-graph answer awaiting the oracle after the window.
type pending struct {
	g   *graph.Graph
	n   int
	got uint64
}

// generator yields one client's request stream. Everything it does happens
// outside the timed span.
type generator interface {
	next() *request
}

// conn is one client connection.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newConn() *conn {
	return &conn{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do posts body and returns the status and the reply, valid until the next do.
func (c *conn) do(url string, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// wire shapes of the replies, reduced to what the checks read.
type predictReply struct {
	PredictedSeconds float64          `json:"predicted_seconds"`
	Error            string           `json:"error"`
	Code             int              `json:"code"`
	Trace            *obs.TraceReport `json:"trace"`
}

type batchReply struct {
	Results []predictReply   `json:"results"`
	Trace   *obs.TraceReport `json:"trace"`
}

// verify checks a reply against the request's contract. It returns the kind
// of violation ("" when none), the trace the server attached, and any
// custom-graph answers to hold for the oracle.
func (r *request) verify(status int, reply []byte, sampled bool) (kind string, tr *obs.TraceReport, held []pending) {
	if status != r.want {
		return fmt.Sprintf("status_%d_want_%d", status, r.want), nil, nil
	}
	if r.want != http.StatusOK {
		return "", nil, nil
	}
	var got []predictReply
	if r.batch {
		var br batchReply
		if err := json.Unmarshal(reply, &br); err != nil {
			return "bad_json", nil, nil
		}
		got, tr = br.Results, br.Trace
	} else {
		var pr predictReply
		if err := json.Unmarshal(reply, &pr); err != nil {
			return "bad_json", nil, nil
		}
		got, tr = []predictReply{pr}, pr.Trace
	}
	if len(got) != len(r.items) {
		return "item_count", tr, nil
	}
	for i, it := range r.items {
		secs := got[i].PredictedSeconds
		switch {
		case got[i].Error != "" || got[i].Code != 0:
			return "item_error", tr, nil
		case !(secs > 0) || math.IsInf(secs, 0):
			return "not_positive", tr, nil
		case it.g == nil && math.Float64bits(secs) != it.expect:
			return "wrong_bits", tr, nil
		case it.g != nil && sampled:
			held = append(held, pending{g: it.g, n: it.n, got: math.Float64bits(secs)})
		}
	}
	return "", tr, held
}

// sample is one sent request: when it finished, counted from the window's
// start, how long it took, and whether the reply was right.
type sample struct {
	end, lat int64 // ns
	good     bool  // right, though perhaps late
}

// clientStats is what one client records; clients never share one.
type clientStats struct {
	origin   time.Time // the window's start
	samples  []sample  // one per sent request
	lag      []int64   // open loop: ns between due time and send
	sent     int
	correct  int
	failures map[string]int
	held     []pending
	busy     time.Duration // inside timed spans
	wall     time.Duration
	spans    []span
}

func (s *clientStats) fail(kind string) {
	if s.failures == nil {
		s.failures = make(map[string]int)
	}
	s.failures[kind]++
}

// record files one finished request. lat runs from start, which is the due
// time in an open loop; wire is the span the request spent on the connection.
func (s *clientStats) record(r *request, start time.Time, lat, wire time.Duration, status int, reply []byte, err error, traceTo *tracer, id string) {
	s.sent++
	s.samples = append(s.samples, sample{end: int64(start.Add(lat).Sub(s.origin)), lat: int64(lat)})
	s.busy += wire
	if err != nil {
		s.fail("transport")
		return
	}
	kind, tr, held := r.verify(status, reply, s.sent%sampleEvery == 0)
	if kind != "" {
		s.fail(kind)
		return
	}
	s.held = append(s.held, held...)
	s.samples[len(s.samples)-1].good = true
	s.correct++
	if traceTo != nil {
		s.spans = traceTo.spans(s.spans, id, r.path, start, lat, tr)
	}
}

// runStats merges the clients of one window.
type runStats struct {
	samples  []sample
	lat      []int64 // sorted ns
	lag      []int64 // sorted ns
	sent     int
	correct  int
	failures map[string]int
	held     []pending
	busy     time.Duration
	wall     time.Duration // summed over clients
	elapsed  time.Duration // the window as run
	backlog  int           // open loop: requests not yet sent at the schedule's nominal end
	spans    []span
}

func merge(per []*clientStats, elapsed time.Duration) *runStats {
	out := &runStats{failures: map[string]int{}, elapsed: elapsed}
	for _, s := range per {
		out.samples = append(out.samples, s.samples...)
		out.lag = append(out.lag, s.lag...)
		out.sent += s.sent
		out.correct += s.correct
		out.held = append(out.held, s.held...)
		out.busy += s.busy
		out.wall += s.wall
		out.spans = append(out.spans, s.spans...)
		for k, n := range s.failures {
			out.failures[k] += n
		}
	}
	out.lat = make([]int64, len(out.samples))
	for i, sm := range out.samples {
		out.lat[i] = sm.lat
	}
	out.lat, out.lag = sortedCopy(out.lat), sortedCopy(out.lag)
	return out
}

// slices is how many equal parts a window is cut into. Throughput and the
// latency percentiles are reported as the median over the parts, so that a
// disturbance (a neighbour's burst, one long collection) moves the parts it
// falls in and not the run's number. Twenty half-second parts, because the
// open loop's p99 needs them: over ten seeds its spread was 4-24% with five
// parts and 7-9% with twenty; the closed loops read the same either way.
const slices = 20

// sliced returns the median over the window's parts of correct replies per
// second, p50 and p99 (ns), and the share of sent requests answered right
// within sloLimit; a request belongs to the part it finished in.
func (r *runStats) sliced() (rps, p50, p99, sloOK float64) {
	width := r.elapsed / slices
	if width <= 0 {
		return 0, 0, 0, 0
	}
	lat := make([][]int64, slices)
	good, onTime := make([]float64, slices), make([]float64, slices)
	for _, sm := range r.samples {
		k := min(max(int(sm.end/int64(width)), 0), slices-1)
		lat[k] = append(lat[k], sm.lat)
		if sm.good {
			good[k]++
			if sm.lat <= int64(sloLimit) {
				onTime[k]++
			}
		}
	}
	var rpsK, p50K, p99K, sloK []float64
	for k := range lat {
		sorted := sortedCopy(lat[k])
		rpsK = append(rpsK, good[k]/width.Seconds())
		p50K = append(p50K, float64(percentile(sorted, 0.50)))
		p99K = append(p99K, float64(percentile(sorted, 0.99)))
		sloK = append(sloK, onTime[k]/max(float64(len(sorted)), 1))
	}
	return median(rpsK), median(p50K), median(p99K), median(sloK)
}

func (r *runStats) failed() int { return r.sent - r.correct }

// onTimeFrac is the share of sent requests answered right within sloLimit,
// over the whole window.
func (r *runStats) onTimeFrac() float64 {
	n := 0
	for _, sm := range r.samples {
		if sm.good && sm.lat <= int64(sloLimit) {
			n++
		}
	}
	return float64(n) / float64(r.sent)
}

// runClosed drives each generator from its own client for dur: a client sends
// its next request only after the previous reply, so a slower server sees
// less load. tr, when non-nil, adds ?trace=1 and collects spans.
func runClosed(targets []string, gens []generator, dur time.Duration, tr *tracer) *runStats {
	per := make([]*clientStats, len(gens))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c, gen := range gens {
		per[c] = &clientStats{origin: start}
		wg.Add(1)
		go func(c int, gen generator, st *clientStats) {
			defer wg.Done()
			cn := newConn()
			defer cn.close()
			began := time.Now()
			for i := 0; time.Now().Before(deadline); i++ {
				r := gen.next()
				url, id := targets[c]+r.path, ""
				if tr != nil {
					url, id = url+"?trace=1", fmt.Sprintf("c%d-%06d", c, i)
				}
				t0 := time.Now()
				status, reply, err := cn.do(url, r.body, id)
				lat := time.Since(t0)
				st.record(r, t0, lat, lat, status, reply, err, tr, id)
			}
			st.wall = time.Since(began)
		}(c, gen, per[c])
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// arrival is one open-loop request with its due time from the start.
type arrival struct {
	due time.Duration
	req *request
}

// runOpen sends the schedule on time whatever the server does: one
// dispatcher hands each arrival, at its due time, to the two connections,
// and each request is timed from that due time, so a request that queued
// behind a stall pays for the stall. Arrivals due before discard are sent
// but not recorded (warm-up). Once an arrival is picked up more than giveUp
// late the run stops: what is left counts as sent and failed, instead of the
// run outlasting its budget on a rate it cannot carry.
func runOpen(targets []string, sched []arrival, discard time.Duration, tr *tracer) *runStats {
	per := make([]*clientStats, clients)
	start := time.Now()
	due := make(chan int, len(sched)) // holds the whole schedule: the dispatcher never blocks on a busy connection
	var taken, lost atomic.Int64
	var wg sync.WaitGroup
	for c := range per {
		per[c] = &clientStats{origin: start.Add(discard)}
		wg.Add(1)
		go func(c int, st *clientStats) {
			defer wg.Done()
			cn := newConn()
			defer cn.close()
			for i := range due {
				taken.Add(1)
				a := sched[i]
				dueAt := start.Add(a.due)
				sentAt := time.Now()
				if sentAt.Sub(dueAt) > giveUp || lost.Load() > 0 {
					lost.Add(1)
					continue
				}
				url, id := targets[c]+a.req.path, ""
				if tr != nil {
					url, id = url+"?trace=1", fmt.Sprintf("o%d-%06d", c, i)
				}
				status, reply, err := cn.do(url, a.req.body, id)
				if a.due < discard {
					continue
				}
				done := time.Now()
				st.lag = append(st.lag, int64(sentAt.Sub(dueAt)))
				st.record(a.req, dueAt, done.Sub(dueAt), done.Sub(sentAt), status, reply, err, tr, id)
			}
		}(c, per[c])
	}
	for i, a := range sched {
		waitUntil(start.Add(a.due))
		due <- i
	}
	backlog := len(sched) - int(taken.Load()) // handed over but not yet picked up when the schedule ends
	close(due)
	wg.Wait()
	out := merge(per, time.Since(start)-discard)
	out.backlog = backlog
	if n := int(lost.Load()); n > 0 {
		out.sent += n
		out.failures["unsent_gave_up"] += n
	}
	return out
}

// checkHeld runs the sampled custom-graph answers through the oracle, on
// every core, and moves those not bit-equal to the library path to failures.
func (e *env) checkHeld(r *runStats) {
	held := r.held
	var bad atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(held) {
					return
				}
				secs, err := e.oracle.Predict(held[i].g, cluster.Homogeneous(held[i].n, e.spec))
				if err != nil || math.Float64bits(secs) != held[i].got {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := int(bad.Load()); n > 0 {
		r.failures["wrong_bits_sampled"] += n
		r.correct -= n
	}
}
