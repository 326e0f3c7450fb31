// Command predictddl is the PredictDDL controller: it trains the offline
// pipeline for one or more datasets and either answers a single prediction
// request (predict) or serves the HTTP API (serve).
//
// Usage:
//
//	predictddl predict -dataset cifar10 -model resnet50 -servers 8
//	predictddl serve   -addr :8080 -datasets cifar10,tiny-imagenet
//	predictddl models | datasets | specs
//
// serve exposes POST /v1/predict, GET /v1/status, and GET /v1/models
// (§III-D of the paper: Controller + Listener + Task Checker). With
// -collector ADDR it also runs the Cluster Resource Collector and uses the
// live inventory when requests omit an explicit cluster.
//
// gateway fronts N serve replicas with a consistent-hash router
// (DESIGN.md §13): datasets shard across the replicas, /v1/predict/batch
// fans out to the owning shards, dead replicas fail over to their ring
// successor, and the live-host inventory replicates across every
// replica's collector:
//
//	predictddl gateway -addr :8090 \
//	    -replicas http://host-a:8080,http://host-b:8080 \
//	    -collectors host-a:7070,host-b:7070
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"predictddl"
	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/dataset"
	"predictddl/internal/gateway"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = runTrain(os.Args[2:])
	case "predict":
		err = runPredict(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "gateway":
		err = runGateway(os.Args[2:])
	case "models":
		for _, m := range predictddl.Zoo() {
			fmt.Println(m)
		}
	case "datasets":
		for _, d := range dataset.Names() {
			fmt.Println(d)
		}
	case "specs":
		for _, s := range cluster.SpecNames() {
			fmt.Println(s)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "predictddl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "predictddl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  predictddl train   -dataset NAME -o FILE [-full] [-backend NAME]
  predictddl predict -dataset NAME -model NAME -servers N [-spec NAME] [-load FILE] [-quick] [-backend NAME]
  predictddl serve   -addr :8080 [-datasets cifar10,tiny-imagenet] [-collector ADDR] [-quick] [-backend NAME]
                     [-read-timeout 30s] [-write-timeout 2m] [-idle-timeout 2m]
                     [-shutdown-timeout 30s] [-max-body N] [-max-batch N] [-collector-ttl 30s]
                     [-pprof] [-trace-log]
  predictddl gateway -addr :8090 -replicas URL,URL,... [-collectors ADDR,ADDR,...]
                     [-seed 1] [-vnodes 64] [-shard-inflight N]
                     [-health-interval 1s] [-health-timeout 500ms] [-replicate-interval 1s]
                     [-max-body N] [-max-batch N] [-shutdown-timeout 30s]
  predictddl models | datasets | specs`)
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	ds := fs.String("dataset", "cifar10", "dataset type")
	out := fs.String("o", "", "output predictor file (required)")
	full := fs.Bool("full", false, "full-fidelity offline training (slower)")
	backend := backendFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o is required")
	}
	p, err := trainOne(*ds, !*full, *backend)
	if err != nil {
		return err
	}
	if err := p.SaveFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "predictor saved to %s\n", *out)
	return nil
}

func trainOne(ds string, quick bool, backend string) (*predictddl.Predictor, error) {
	opts := predictddl.Options{Dataset: ds}
	if quick {
		opts.GHNGraphs = 64
		opts.GHNEpochs = 6
		opts.ServerCounts = []int{1, 2, 4, 8, 12, 16, 20}
	}
	if backend != "" {
		m, err := predictddl.NewBackendRegressor(backend, 1)
		if err != nil {
			return nil, err
		}
		opts.Regressor = m
	}
	fmt.Fprintf(os.Stderr, "training PredictDDL for %s (offline GHN + campaign + regressor fit)...\n", ds)
	return predictddl.Train(opts)
}

func backendFlag(fs *flag.FlagSet) *string {
	return fs.String("backend", "",
		fmt.Sprintf("prediction backend (one of %s; empty = serving default)",
			strings.Join(predictddl.BackendNames(), ", ")))
}

func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	ds := fs.String("dataset", "cifar10", "dataset type")
	model := fs.String("model", "", "architecture name (see `predictddl models`)")
	servers := fs.Int("servers", 4, "cluster size")
	spec := fs.String("spec", "", "machine class (defaults per dataset)")
	topology := fs.String("topology", "", "JSON topology file describing a custom (possibly heterogeneous/loaded) cluster")
	quick := fs.Bool("quick", true, "downsized offline training")
	load := fs.String("load", "", "load a saved predictor instead of training")
	backend := backendFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("-model is required")
	}
	var p *predictddl.Predictor
	var err error
	if *load != "" {
		if p, err = predictddl.LoadPredictorFile(*load); err != nil {
			return err
		}
		*ds = p.Dataset().Name
	} else if p, err = trainOne(*ds, *quick, *backend); err != nil {
		return err
	}
	var secs float64
	where := fmt.Sprintf("%d servers", *servers)
	switch {
	case *topology != "":
		c, lerr := cluster.LoadTopologyFile(*topology)
		if lerr != nil {
			return lerr
		}
		g, berr := predictddl.BuildModel(*model, p.Dataset())
		if berr != nil {
			return berr
		}
		secs, err = p.PredictGraph(g, c)
		where = fmt.Sprintf("%d servers from %s", c.Size(), *topology)
	case *spec != "":
		s, lerr := predictddl.LookupServerSpec(*spec)
		if lerr != nil {
			return lerr
		}
		g, berr := predictddl.BuildModel(*model, p.Dataset())
		if berr != nil {
			return berr
		}
		secs, err = p.PredictGraph(g, predictddl.Homogeneous(*servers, s))
	default:
		secs, err = p.Predict(*model, *servers)
	}
	if err != nil {
		return err
	}
	if closest, sim, cerr := p.Confidence(*model); cerr == nil {
		fmt.Printf("%s on %s (%s): predicted training time %.1f s (%.2f h)\n"+
			"confidence: closest known architecture %s (similarity %.3f)\n",
			*model, where, *ds, secs, secs/3600, closest, sim)
		return nil
	}
	fmt.Printf("%s on %s (%s): predicted training time %.1f s (%.2f h)\n",
		*model, where, *ds, secs, secs/3600)
	return nil
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func runGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "HTTP listen address")
	replicas := fs.String("replicas", "", "comma-separated controller base URLs forming the ring (required)")
	collectors := fs.String("collectors", "", "comma-separated collector TCP addresses to replicate the live inventory to")
	seed := fs.Int64("seed", 1, "ring placement + probe jitter seed (equal seeds and replica sets route identically)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per replica (0 = default)")
	shardInflight := fs.Int("shard-inflight", 0, "max concurrent forwards per shard before shedding with 503+Retry-After (0 = unlimited)")
	healthInterval := fs.Duration("health-interval", gateway.DefaultHealthInterval, "pause between health-probe rounds")
	healthTimeout := fs.Duration("health-timeout", gateway.DefaultHealthTimeout, "per-probe timeout")
	replicateInterval := fs.Duration("replicate-interval", gateway.DefaultReplicateInterval, "pause between inventory replication rounds")
	maxBody := fs.Int64("max-body", core.DefaultMaxBodyBytes, "max POST body bytes admitted at the front door")
	maxBatch := fs.Int("max-batch", core.DefaultMaxBatchItems, "max requests per /v1/predict/batch call")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read one request")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "max time to handle and write one response")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "graceful drain window on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	urls := splitList(*replicas)
	if len(urls) == 0 {
		return fmt.Errorf("-replicas is required (comma-separated controller base URLs)")
	}
	gw, err := gateway.New(gateway.Options{
		Replicas:          urls,
		CollectorAddrs:    splitList(*collectors),
		Seed:              *seed,
		VNodes:            *vnodes,
		ShardInflight:     *shardInflight,
		HealthInterval:    *healthInterval,
		HealthTimeout:     *healthTimeout,
		ReplicateInterval: *replicateInterval,
		MaxBodyBytes:      *maxBody,
		MaxBatchItems:     *maxBatch,
	})
	if err != nil {
		return err
	}
	srv, err := core.NewServer(*addr, gw.Handler(), core.ServerOptions{
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		IdleTimeout:     *idleTimeout,
		ShutdownTimeout: *shutdownTimeout,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Health + replication loops run until the signal lands; the HTTP
	// server then drains gracefully exactly like serve.
	go gw.Run(ctx)
	for _, u := range urls {
		fmt.Fprintf(os.Stderr, "shard %s → %s\n", gw.ShardLabel(u), u)
	}
	fmt.Fprintf(os.Stderr, "gateway listening on %s (%d replicas)\n", srv.Addr(), len(urls))
	return srv.Serve(ctx)
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "HTTP listen address")
	datasets := fs.String("datasets", "cifar10", "comma-separated dataset types to train")
	collectorAddr := fs.String("collector", "", "also run a resource collector on this TCP address")
	quick := fs.Bool("quick", true, "downsized offline training")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read one request")
	writeTimeout := fs.Duration("write-timeout", 2*time.Minute, "max time to handle and write one response")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "graceful drain window on SIGINT/SIGTERM")
	maxBody := fs.Int64("max-body", core.DefaultMaxBodyBytes, "max POST body bytes")
	maxBatch := fs.Int("max-batch", core.DefaultMaxBatchItems, "max requests per /v1/predict/batch call")
	collectorTTL := fs.Duration("collector-ttl", 30*time.Second, "collector registration time-to-live")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceLog := fs.Bool("trace-log", true, "log ?trace=1 request traces to stderr")
	backend := backendFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var preds []*predictddl.Predictor
	for _, ds := range strings.Split(*datasets, ",") {
		ds = strings.TrimSpace(ds)
		if ds == "" {
			continue
		}
		p, err := trainOne(ds, *quick, *backend)
		if err != nil {
			return err
		}
		preds = append(preds, p)
	}
	if len(preds) == 0 {
		return fmt.Errorf("no datasets specified")
	}
	ctrl := predictddl.NewController(preds...)
	ctrl.SetLimits(*maxBody, *maxBatch)
	if *traceLog {
		ctrl.SetTraceLog(log.New(os.Stderr, "trace: ", log.LstdFlags))
	}
	if *collectorAddr != "" {
		// The collector reports into the controller's registry, so
		// /v1/metrics covers the whole serving surface.
		col, err := cluster.NewCollector(*collectorAddr, cluster.CollectorOptions{
			TTL: *collectorTTL,
			Obs: ctrl.Metrics(),
		})
		if err != nil {
			return err
		}
		defer col.Close()
		ctrl.SetCollector(col)
		fmt.Fprintf(os.Stderr, "resource collector listening on %s\n", col.Addr())
	}
	handler := ctrl.Handler()
	if *pprofOn {
		// Mount the profiler on an explicit mux (never the default one) so
		// it is opt-in per process; /debug/vars stays on the controller.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(os.Stderr, "pprof enabled under /debug/pprof/")
	}
	srv, err := core.NewServer(*addr, handler, core.ServerOptions{
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		IdleTimeout:     *idleTimeout,
		ShutdownTimeout: *shutdownTimeout,
	})
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM trigger a graceful drain: the listener closes first,
	// in-flight predictions finish (bounded by -shutdown-timeout), then
	// Serve returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "controller listening on %s\n", srv.Addr())
	return srv.Serve(ctx)
}
