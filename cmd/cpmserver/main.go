// Command cpmserver hosts a CPM monitor behind the TCP serving layer
// (internal/server): remote clients — the client package, cpmsim -connect,
// or anything speaking internal/wire — feed it object streams, register
// continuous queries, poll results and subscribe to pushed result diffs
// with reconnect/resume semantics.
//
// Two modes:
//
//	cpmserver -addr :7845
//	    An empty monitor. Clients bring everything: bootstrap, queries,
//	    update ticks (remote ingest).
//
//	cpmserver -addr :7845 -drive -n 20000 -queries 500 -interval 250ms
//	    Self-driving: the server generates a Brinkhoff-style network
//	    workload, registers the queries itself and ticks continuously at
//	    the given interval. Clients subscribe (and may register further
//	    queries of their own) — a one-process demo of the push pipeline.
//
// The monitor can run sharded (-shards) and with online grid rebalancing
// (-rebalance) exactly like the embedded library. With -metrics the server
// additionally exposes its runtime counters as a plain-text HTTP page
// ("name value" lines, curl-able; see docs/METRICS.md):
//
//	cpmserver -addr :7845 -metrics :9100
//	curl -s localhost:9100/metrics
//
// The same address carries the debug surfaces: the distributed-tracing
// flight recorder on /debug/traces (enabled by -trace-sample and/or
// -slow-op; see docs/TRACING.md) and, with -pprof, the standard profiling
// handlers on /debug/pprof/.
//
// Stop with SIGINT/SIGTERM; connections drain and the process exits.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cpm"
	"cpm/internal/bench"
	"cpm/internal/cmdutil"
	"cpm/internal/generator"
	"cpm/internal/model"
	"cpm/internal/network"
	"cpm/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7845", "listen address")
		metricsAddr = flag.String("metrics", "", "serve plain-text metrics over HTTP on this address (empty = off)")
		gridSize    = flag.Int("grid", 128, "grid cells per dimension")
		shards      = flag.Int("shards", 1, "CPM worker shards (>1 parallelizes each cycle; 0 = all usable cores)")
		rebalance   = flag.Bool("rebalance", false, "auto-rebalance the grid online as object density drifts")
		verbose     = flag.Bool("v", false, "shorthand for -log-level debug")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")

		writeTimeout     = flag.Duration("write-timeout", 10*time.Second, "per-flush socket write deadline (slow-consumer reap; <0 disables)")
		handshakeTimeout = flag.Duration("handshake-timeout", 10*time.Second, "deadline for the client's Hello frame (<0 disables)")

		traceSample = flag.Float64("trace-sample", 0, "trace head-sampling probability in [0,1] (0 = off)")
		slowOp      = flag.Duration("slow-op", 0, "force-record any op at least this slow into the flight recorder (0 = off)")
		traceCap    = flag.Int("trace-cap", 256, "flight-recorder capacity in traces")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/ on the -metrics address")

		drive    = flag.Bool("drive", false, "self-drive a generated workload instead of waiting for remote ingest")
		n        = flag.Int("n", 10000, "object population (-drive)")
		queries  = flag.Int("queries", 100, "number of k-NN queries (-drive)")
		k        = flag.Int("k", 8, "neighbors per query (-drive)")
		ts       = flag.Int("ts", 0, "timestamps to simulate, 0 = run until stopped (-drive)")
		interval = flag.Duration("interval", 250*time.Millisecond, "delay between cycles (-drive)")
		seed     = flag.Int64("seed", 1, "workload seed (-drive)")
	)
	flag.Parse()
	if *verbose && *logLevel == "info" {
		*logLevel = "debug"
	}
	logger := cmdutil.Logger("cpmserver", *logLevel)

	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "cpmserver: -shards must be non-negative")
		os.Exit(2)
	}
	mon := cpm.NewMonitor(cpm.Options{
		GridSize:      *gridSize,
		Shards:        bench.ResolveShards(*shards),
		AutoRebalance: *rebalance,
	})
	tracer := cmdutil.TraceConfig{Sample: *traceSample, SlowOp: *slowOp, Cap: *traceCap}.Build(logger)
	opts := server.Options{
		WriteTimeout:     *writeTimeout,
		HandshakeTimeout: *handshakeTimeout,
		Logf:             cmdutil.Logf(logger),
		Tracer:           tracer,
	}
	srv := server.New(mon, opts)

	// The startup line carries every resolved option, so operator logs
	// identify the configuration a running instance was launched with.
	logger.Info("starting",
		"addr", *addr, "metrics", orOff(*metricsAddr),
		"grid", *gridSize, "shards", bench.ResolveShards(*shards), "rebalance", *rebalance,
		"write_timeout", *writeTimeout, "handshake_timeout", *handshakeTimeout,
		"trace_sample", *traceSample, "slow_op", *slowOp, "pprof", *pprofOn,
		"drive", *drive)

	if *metricsAddr != "" {
		go cmdutil.ServeMetrics(logger, *metricsAddr, tracer, *pprofOn, srv.Metrics().WriteText)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	quit := make(chan struct{})
	done := make(chan struct{})
	if *drive {
		go driveWorkload(logger, srv, *n, *queries, *k, *ts, *seed, *interval, quit, done)
	} else {
		close(done)
	}

	go func() {
		<-stop
		logger.Info("shutting down")
		close(quit)
		srv.Close()
	}()

	if err := srv.ListenAndServe(*addr); err != nil && err != server.ErrClosed {
		cmdutil.Fatal(logger, "serve failed", "err", err)
	}
	<-done
	mon.Close()
}

// orOff renders an optional address for the startup line.
func orOff(addr string) string {
	if addr == "" {
		return "off"
	}
	return addr
}

// driveWorkload bootstraps a generated workload into the served monitor
// and ticks it forever (or for ts cycles), sharing the monitor with the
// network via the server's lock.
func driveWorkload(logger *slog.Logger, srv *server.Server, n, queries, k, ts int, seed int64, interval time.Duration, quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	net, err := network.Generate(network.GenOptions{Width: 32, Height: 32, Seed: seed})
	if err != nil {
		cmdutil.Fatal(logger, "network generation failed", "err", err)
	}
	w, err := generator.New(net, generator.Params{
		N: n, NumQueries: queries,
		ObjectSpeed: generator.Medium, QuerySpeed: generator.Medium,
		ObjectAgility: 0.5, QueryAgility: 0.3,
		Seed: seed + 1,
	})
	if err != nil {
		cmdutil.Fatal(logger, "workload generation failed", "err", err)
	}
	srv.Locked(func(m server.Backend) {
		m.Bootstrap(w.InitialObjects())
		for i, q := range w.InitialQueries() {
			if err := m.RegisterQuery(model.QueryID(i), q, k); err != nil {
				cmdutil.Fatal(logger, "query registration failed", "query", i, "err", err)
			}
		}
	})
	logger.Info("driving workload", "objects", n, "queries", queries, "k", k, "interval", interval)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for cycle := 1; ts == 0 || cycle <= ts; cycle++ {
		select {
		case <-ticker.C:
		case <-quit:
			return
		}
		b := w.Advance()
		var changed int
		var cycleNs int64
		srv.Locked(func(m server.Backend) {
			m.Tick(b)
			changed = len(m.ChangedQueries())
			cycleNs = m.LastCycleNanos()
		})
		srv.ObserveCycle(time.Duration(cycleNs))
		if cycle%20 == 0 {
			logger.Info("drive progress", "cycle", cycle, "updates", len(b.Objects), "changed", changed)
		}
	}
}
