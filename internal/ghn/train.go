package ghn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"predictddl/internal/graph"
	"predictddl/internal/nn"
	"predictddl/internal/obs"
	"predictddl/internal/tensor"
)

// nodeTargets returns the proxy supervision for one node: log-scaled
// parameter and FLOP counts (scaled to keep Huber in its quadratic regime).
func nodeTargets(n *graph.Node) []float64 {
	return []float64{
		math.Log1p(float64(n.Params)) / 10,
		math.Log1p(float64(n.FLOPs)) / 20,
	}
}

// graphTargets returns the graph-level proxy supervision: aggregate
// complexity and operation mix — quantities the embedding must encode to be
// useful for training-time prediction.
func graphTargets(g *graph.Graph) []float64 {
	var dwFLOPs, denseFLOPs int64
	for _, n := range g.Nodes {
		switch n.Op {
		case graph.OpDepthwiseConv:
			dwFLOPs += n.FLOPs
		case graph.OpConv, graph.OpGroupConv, graph.OpLinear:
			denseFLOPs += n.FLOPs
		}
	}
	tot := float64(g.TotalFLOPs())
	dwFrac, denseFrac := 0.0, 0.0
	if tot > 0 {
		dwFrac = float64(dwFLOPs) / tot
		denseFrac = float64(denseFLOPs) / tot
	}
	nodes := float64(g.NumNodes())
	return []float64{
		math.Log1p(nodes) / 10,
		math.Log1p(float64(g.TotalParams())) / 20,
		math.Log1p(tot) / 25,
		float64(g.Depth()) / nodes,
		dwFrac,
		denseFrac,
	}
}

// newTrainGraph is newTapeGraph plus the proxy supervision.
func (g *GHN) newTrainGraph(gr *graph.Graph) (*tapeGraph, error) {
	tg, err := g.newTapeGraph(gr)
	if err != nil {
		return nil, err
	}
	tg.nodeT = make([][]float64, gr.NumNodes())
	for i, node := range gr.Nodes {
		tg.nodeT[i] = nodeTargets(node)
	}
	tg.graphT = graphTargets(gr)
	return tg, nil
}

// TrainConfig controls proxy training.
type TrainConfig struct {
	// Graphs is the number of random DARTS-style architectures to sample
	// (the synthetic training distribution of GHN-2). Defaults to 256.
	Graphs int
	// Epochs is the number of passes over the sampled set. Defaults to 8.
	Epochs int
	// LR is the Adam learning rate. Defaults to 3e-3.
	LR float64
	// Seed drives sampling, init, and shuffling.
	Seed int64
	// ClipNorm bounds the global gradient norm. Defaults to 5.
	ClipNorm float64
	// GraphConfig shapes the sampled architectures' inputs (defaults to
	// CIFAR-10 dimensions). Dataset-specific GHNs are trained by varying
	// this, matching the paper's one-GHN-per-dataset registry.
	GraphConfig graph.Config
	// GraphConfigs, when non-empty, samples architectures across several
	// input shapes round-robin — the "generalize the embeddings generator
	// for multiple datasets" direction of the paper's future work (§VI).
	// It overrides GraphConfig.
	GraphConfigs []graph.Config
	// BatchSize is the number of graphs whose gradients are averaged per
	// Adam step. Defaults to 1 — the original per-graph regime. Values
	// above 1 switch to minibatch accumulation, which is what Parallelism
	// shards across workers.
	BatchSize int
	// Parallelism is the number of goroutines sharding each batch's
	// forward/backward passes: 0 picks runtime.NumCPU(), 1 forces the
	// serial path. Every setting yields bit-identical weights at a fixed
	// seed: per-graph gradients land in per-graph slots and are reduced in
	// fixed graph order before the optimizer step, so worker scheduling
	// never reaches the arithmetic.
	Parallelism int
	// Metrics, when non-nil, attaches observability hooks to the trained
	// GHN: per-step timing and worker-queue depth during training, embed
	// latency afterwards. Instrumentation never touches the arithmetic, so
	// trained weights are bit-identical with or without it.
	Metrics *Metrics
}

func (tc TrainConfig) withDefaults() TrainConfig {
	if tc.Graphs <= 0 {
		tc.Graphs = 256
	}
	if tc.Epochs <= 0 {
		tc.Epochs = 8
	}
	if tc.LR <= 0 {
		tc.LR = 3e-3
	}
	if tc.ClipNorm <= 0 {
		tc.ClipNorm = 5
	}
	if tc.BatchSize <= 0 {
		tc.BatchSize = 1
	}
	if tc.Parallelism <= 0 {
		tc.Parallelism = runtime.NumCPU()
	}
	return tc
}

// TrainReport summarizes one training run.
type TrainReport struct {
	// InitialLoss and FinalLoss are mean per-graph losses at the first and
	// last epoch.
	InitialLoss, FinalLoss float64
	// Graphs and Epochs echo the effective configuration.
	Graphs, Epochs int
}

// Train samples a synthetic architecture distribution and trains a fresh
// GHN on the complexity-proxy objective. This is the "Offline GHN Trainer"
// of the paper's Fig. 8, invoked once per dataset type.
func Train(cfg Config, tc TrainConfig) (*GHN, TrainReport, error) {
	tc = tc.withDefaults()
	rng := tensor.NewRNG(tc.Seed)
	g := New(cfg, rng)
	g.SetMetrics(tc.Metrics)

	graphs := make([]*tapeGraph, tc.Graphs)
	for i := range graphs {
		cfg := tc.GraphConfig
		if len(tc.GraphConfigs) > 0 {
			cfg = tc.GraphConfigs[i%len(tc.GraphConfigs)]
		}
		var err error
		if graphs[i], err = g.newTrainGraph(graph.RandomGraph(rng, cfg)); err != nil {
			return nil, TrainReport{}, err
		}
	}
	report := TrainReport{Graphs: tc.Graphs, Epochs: tc.Epochs}

	params := g.Params()
	opt := nn.NewAdam(tc.LR)

	workers := tc.Parallelism
	if workers > tc.BatchSize {
		workers = tc.BatchSize
	}
	// pool, its replicas and every step arena are dropped when Train
	// returns: the trained GHN keeps none of the training-time memory.
	pool := newTrainPool(g, params, workers)
	slots := newGradSlots(params, tc.BatchSize)

	for epoch := 0; epoch < tc.Epochs; epoch++ {
		var epochLoss float64
		order := rng.Perm(len(graphs))
		for start := 0; start < len(order); start += tc.BatchSize {
			end := start + tc.BatchSize
			if end > len(order) {
				end = len(order)
			}
			epochLoss += g.trainBatch(graphs, order[start:end], params, opt, tc.ClipNorm, pool, slots)
		}
		epochLoss /= float64(len(graphs))
		if epoch == 0 {
			report.InitialLoss = epochLoss
		}
		report.FinalLoss = epochLoss
	}
	if err := nn.CheckFinite(params); err != nil {
		return nil, report, fmt.Errorf("ghn: training diverged: %w", err)
	}
	return g, report, nil
}

// gradSlots holds one gradient buffer per batch position so worker
// scheduling cannot influence summation order: slot b always receives the
// gradient of the batch's b-th graph, and slots are reduced in ascending b.
type gradSlots [][][]float64

func newGradSlots(params []*nn.Param, batch int) gradSlots {
	slots := make(gradSlots, batch)
	for b := range slots {
		slots[b] = make([][]float64, len(params))
		for k, p := range params {
			slots[b][k] = make([]float64, len(p.Grad.Data()))
		}
	}
	return slots
}

// trainWorker is one goroutine's share of training: a network to run
// forward/backward on, that network's parameters (its gradient
// accumulators), and the tape state — arena included — it reuses for every
// step.
type trainWorker struct {
	g      *GHN
	params []*nn.Param
	st     forwardState
}

// trainPool is the set of workers a batch is sharded across. A pool of one
// is the master network itself (the serial path); a larger pool is made of
// full replicas whose weights are re-synced from the master before every
// batch. The forward/backward arithmetic of a graph is therefore identical
// no matter which worker runs it.
type trainPool []*trainWorker

func newTrainPool(master *GHN, params []*nn.Param, n int) trainPool {
	p := make(trainPool, max(n, 1))
	for i := range p {
		g, ps := master, params
		if n > 1 {
			g = master.cloneArch()
			ps = g.Params()
		}
		p[i] = &trainWorker{g: g, params: ps, st: forwardState{arena: new(nn.Arena)}}
	}
	return p
}

// sync copies the master weights into every replica.
func (p trainPool) sync(master []*nn.Param) {
	for _, w := range p {
		for k, mp := range master {
			copy(w.params[k].W.Data(), mp.W.Data())
		}
	}
}

// cloneArch returns a GHN with the same configuration and freshly allocated
// parameters (weights copied), giving data-parallel workers private
// gradient accumulators.
func (g *GHN) cloneArch() *GHN {
	c := New(g.cfg, tensor.NewRNG(0))
	src, dst := g.Params(), c.Params()
	for i := range src {
		copy(dst[i].W.Data(), src[i].W.Data())
	}
	return c
}

// trainBatch runs one optimizer step over a batch of graph indices,
// sharding the per-graph forward/backward passes across the pool, and
// returns the batch's summed loss. A pool of one and a pool of many produce
// bit-identical results: both compute one gradient per graph in isolation
// and reduce them in ascending batch order before clip + Adam.
func (g *GHN) trainBatch(graphs []*tapeGraph, batch []int, params []*nn.Param, opt nn.Optimizer, clip float64, pool trainPool, slots gradSlots) float64 {
	var queueDepth *obs.Gauge
	if m := g.metrics.Load(); m != nil {
		if m.StepSeconds != nil {
			defer m.StepSeconds.Time(m.clock())()
		}
		queueDepth = m.QueueDepth
	}
	if len(batch) == 1 && len(pool) == 1 {
		// Fast path: a single-graph batch accumulates straight into the
		// master gradients — numerically identical to the slot path
		// (adding one slot into zeroed gradients reproduces it exactly).
		loss := pool[0].gradStep(graphs[batch[0]])
		nn.ClipGradNorm(params, clip)
		opt.Step(params)
		return loss
	}

	losses := make([]float64, len(batch))
	if len(pool) == 1 {
		for b, gi := range batch {
			losses[b] = pool[0].gradIntoSlot(graphs[gi], slots[b])
		}
	} else {
		pool.sync(params)
		queueDepth.Set(int64(len(batch)))
		var next int32
		var wg sync.WaitGroup
		for _, w := range pool {
			wg.Add(1)
			go func(w *trainWorker) {
				defer wg.Done()
				for {
					b := int(atomic.AddInt32(&next, 1)) - 1
					if b >= len(batch) {
						return
					}
					queueDepth.Dec() // item claimed: backlog shrinks
					losses[b] = w.gradIntoSlot(graphs[batch[b]], slots[b])
				}
			}(w)
		}
		wg.Wait()
	}

	// Fixed-order reduction: ascending batch position, then mean, clip,
	// step — the determinism barrier between sharded compute and the
	// optimizer.
	nn.ZeroGrads(params)
	for b := range batch {
		for k, p := range params {
			tensor.AxpyInPlace(p.Grad.Data(), slots[b][k], 1)
		}
	}
	inv := 1 / float64(len(batch))
	for _, p := range params {
		p.Grad.ScaleInPlace(inv)
	}
	nn.ClipGradNorm(params, clip)
	opt.Step(params)

	var total float64
	for _, l := range losses {
		total += l
	}
	return total
}

// gradIntoSlot computes one graph's gradient into slot (via the worker's
// own accumulators) and returns its loss. It never touches the optimizer.
func (w *trainWorker) gradIntoSlot(tg *tapeGraph, slot [][]float64) float64 {
	loss := w.gradStep(tg)
	for k, p := range w.params {
		copy(slot[k], p.Grad.Data())
	}
	return loss
}

// gradStep resets the worker's arena, zeroes its gradient accumulators and
// runs one forward/backward pass on a single graph, leaving the graph's
// gradient in w.params and returning its loss. Every vector the pass
// produced is dead once the next gradStep starts.
func (w *trainWorker) gradStep(tg *tapeGraph) float64 {
	g, st := w.g, &w.st
	a := st.arena
	a.Reset()
	g.forward(st, tg)
	n := len(st.h)

	nn.ZeroGrads(w.params)
	var total float64

	// Per-node decoder loss.
	st.gradNodes = rows(st.gradNodes, n)
	nodeWeight := 1 / float64(n)
	for v := range st.h {
		out, cache := g.decoder.Forward(a, st.h[v])
		loss, grad := nn.HuberLoss(a, out, tg.nodeT[v], 1)
		total += loss * nodeWeight
		for i := range grad {
			grad[i] *= nodeWeight
		}
		st.gradNodes[v] = g.decoder.Backward(a, cache, grad)
	}

	// Graph-level head loss on the projected embedding.
	readout := g.readout(st)
	emb := g.proj.Forward(a, readout)
	out, cache := g.graphHead.Forward(a, emb)
	loss, grad := nn.HuberLoss(a, out, tg.graphT, 1)
	total += loss
	gradEmb := g.graphHead.Backward(a, cache, grad)
	gradReadout := g.proj.Backward(a, readout, gradEmb)

	g.backward(st, st.gradNodes, gradReadout)
	return total
}
