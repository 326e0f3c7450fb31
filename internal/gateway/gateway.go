package gateway

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/obs"
)

// Defaults for Options fields left zero.
const (
	DefaultHealthInterval    = 1 * time.Second
	DefaultHealthTimeout     = 500 * time.Millisecond
	DefaultReplicateInterval = 1 * time.Second
)

// Options configures a Gateway.
type Options struct {
	// Replicas are the controller base URLs (e.g. "http://10.0.0.1:8080")
	// forming the ring. At least one is required.
	Replicas []string
	// CollectorAddrs are the replicas' collector TCP addresses; when set,
	// the replication loop pushes the merged live-host inventory to each,
	// so every collector sees the whole topology. Empty disables pushes.
	CollectorAddrs []string
	// Seed feeds the ring placement and the health-probe backoff jitter.
	// Gateways with equal seeds and replica sets route identically.
	// Defaults to 1.
	Seed int64
	// VNodes is the virtual-node count per replica; <= 0 uses
	// DefaultVNodes.
	VNodes int
	// ShardInflight caps concurrent forwarded requests per replica; past
	// it the gateway sheds with 503 + Retry-After instead of queueing on a
	// saturated shard. <= 0 disables the cap.
	ShardInflight int
	// HealthInterval paces the background probe loop; HealthTimeout bounds
	// one probe. Defaults: 1 s and 500 ms.
	HealthInterval, HealthTimeout time.Duration
	// ReplicateInterval paces the inventory replication loop. Defaults to
	// 1 s.
	ReplicateInterval time.Duration
	// MaxBodyBytes and MaxBatchItems mirror the controller's admission
	// caps at the front door, so oversized work is refused before it
	// crosses the wire. <= 0 uses the core defaults.
	MaxBodyBytes  int64
	MaxBatchItems int
	// Client performs forwarded requests and probes. Defaults to a client
	// with a 30 s overall timeout.
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = DefaultHealthTimeout
	}
	if o.ReplicateInterval <= 0 {
		o.ReplicateInterval = DefaultReplicateInterval
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = core.DefaultMaxBodyBytes
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = core.DefaultMaxBatchItems
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

// Gateway is the sharded serving front door. Construct with New, mount
// Handler behind an HTTP server (core.Server works), and drive the health
// and replication loops with Run.
type Gateway struct {
	opts   Options
	ring   *Ring
	health *health
	reg    *obs.Registry
	mw     *obs.Middleware

	// Per-shard state, keyed by replica URL. Immutable maps after New;
	// the limiter and counters are internally synchronized.
	limiters map[string]*core.InflightLimiter
	labels   map[string]string // replica URL → s0..sN-1 (sorted URL order)

	// Metric handles on reg, the gateway's own registry:
	rebalances  *obs.Counter // gateway.ring.rebalances
	shedTotal   *obs.Counter // gateway.shed.total
	replPushes  *obs.Counter // gateway.replicate.pushes
	replErrors  *obs.Counter // gateway.replicate.errors
	fanoutHist  *obs.Histogram
	shardReqs   map[string]*obs.Counter // gateway.shard.<label>.requests
	shardErrs   map[string]*obs.Counter // gateway.shard.<label>.errors
	shardSheds  map[string]*obs.Counter // gateway.shard.<label>.shed
	shardOwners *obs.Gauge              // gateway.replicas.up
}

// New validates opts and builds the gateway. No I/O happens here: the
// replicas all start presumed-live and the first probe round (Run, or
// CheckNow in tests) corrects the view.
func New(opts Options) (*Gateway, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: at least one replica URL is required")
	}
	opts = opts.withDefaults()
	ring := NewRing(opts.Seed, opts.VNodes, opts.Replicas...)
	members := ring.Members()
	if len(members) != len(opts.Replicas) {
		return nil, fmt.Errorf("gateway: replica URLs must be unique and non-empty; %d of %d survived", len(members), len(opts.Replicas))
	}
	backoff := cluster.NewBackoff(opts.Seed, 0, 0)
	reg := obs.NewRegistry(nil)
	g := &Gateway{
		opts:     opts,
		ring:     ring,
		health:   newHealth(members, opts.Client, opts.HealthTimeout, backoff, time.Now),
		reg:      reg,
		mw:       &obs.Middleware{Registry: reg, IDs: obs.NewIDSource("gwreq")},
		limiters: make(map[string]*core.InflightLimiter, len(members)),
		labels:   shardLabels(members),

		rebalances:  reg.Counter("gateway.ring.rebalances"),
		shedTotal:   reg.Counter("gateway.shed.total"),
		replPushes:  reg.Counter("gateway.replicate.pushes"),
		replErrors:  reg.Counter("gateway.replicate.errors"),
		fanoutHist:  reg.Histogram("gateway.fanout.latency.seconds", obs.LatencyBuckets()),
		shardReqs:   make(map[string]*obs.Counter, len(members)),
		shardErrs:   make(map[string]*obs.Counter, len(members)),
		shardSheds:  make(map[string]*obs.Counter, len(members)),
		shardOwners: reg.Gauge("gateway.replicas.up"),
	}
	for _, m := range members {
		g.limiters[m] = core.NewInflightLimiter(opts.ShardInflight)
		label := g.labels[m]
		g.shardReqs[m] = reg.Counter("gateway.shard." + label + ".requests")
		g.shardErrs[m] = reg.Counter("gateway.shard." + label + ".errors")
		g.shardSheds[m] = reg.Counter("gateway.shard." + label + ".shed")
	}
	g.shardOwners.Set(int64(len(members)))
	return g, nil
}

// Metrics returns the gateway's registry.
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// Ring returns the routing ring (read-only use).
func (g *Gateway) Ring() *Ring { return g.ring }

// ShardLabel returns the stable metric label (s0..sN-1) for a replica URL,
// or "" for an unknown replica.
func (g *Gateway) ShardLabel(replica string) string { return g.labels[replica] }

// CheckNow runs one synchronous health round — every replica probed,
// transitions applied — so tests and callers get a deterministic view
// without waiting on the background loop.
func (g *Gateway) CheckNow(ctx context.Context) {
	g.applyTransitions(g.health.checkNow(ctx))
}

// applyTransitions records health flips in the rebalance counter and the
// live-replica gauge: each up/down transition moves dataset ownership on
// the effective (healthy) ring, which is exactly what operators alert on.
func (g *Gateway) applyTransitions(transitions int) {
	if transitions > 0 {
		g.rebalances.Add(uint64(transitions))
	}
	g.shardOwners.Set(int64(len(g.health.upSet())))
}

// Run drives the background loops — health probing and inventory
// replication — until ctx is cancelled. It runs an immediate first round
// of each so a freshly started gateway converges without waiting a full
// interval.
func (g *Gateway) Run(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.CheckNow(ctx)
		t := time.NewTicker(g.opts.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.applyTransitions(g.health.tick(ctx))
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.ReplicateNow(ctx)
		t := time.NewTicker(g.opts.ReplicateInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.ReplicateNow(ctx)
			}
		}
	}()
	wg.Wait()
}

// Handler returns the gateway HTTP mux. The prediction endpoints mirror
// the controller API — same paths, and behind the same obs.Middleware the
// same metric names (http.requests.*, http.latency.*) and request-ID
// contract — so clients and load tools target a gateway and a bare
// controller interchangeably.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", g.mw.Wrap("predict", g.handlePredict))
	mux.HandleFunc("/v1/predict/batch", g.mw.Wrap("batch", g.handleBatch))
	mux.HandleFunc("/v1/batch", g.mw.Wrap("batch", g.handleBatch)) // legacy alias
	mux.HandleFunc("/v1/status", g.mw.Wrap("status", g.handleStatus))
	mux.HandleFunc("/v1/models", g.mw.Wrap("models", g.handleModels))
	mux.Handle("/v1/metrics", obs.Handler(g.reg))
	mux.Handle("/debug/vars", obs.TextHandler(g.reg))
	return mux
}
