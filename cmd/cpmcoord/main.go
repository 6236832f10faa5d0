// Command cpmcoord is the CPM cluster coordinator: it shards continuous
// queries across a fleet of cpmserver workers and presents the whole
// cluster as one ordinary CPM server — the client package, cpmload and
// cpmsim -connect work against it unmodified.
//
//	cpmserver -addr :7901 &
//	cpmserver -addr :7902 &
//	cpmcoord  -addr :7845 -workers localhost:7901,localhost:7902
//
// Queries are hash-partitioned across the workers (the same partitioning
// internal/shard uses in-process); each tick's object updates fan out to
// every worker concurrently and the per-worker result diffs merge back
// into one id-ordered stream. A worker that fails or stalls past
// -op-timeout is dropped from the fan-out, its subscribers see explicit
// Gap frames, and the next operation that can reach it rebuilds it from
// the coordinator's state mirror; see docs/CLUSTER.md for the full
// semantics.
//
// With -metrics the coordinator serves both its own counters
// (cpm_coord_*, per-worker RTT/reconnects) and its upstream serving-layer
// counters (cpm_server_*) on one plain-text page:
//
//	cpmcoord -addr :7845 -workers ... -metrics :9101
//	curl -s localhost:9101/metrics
//
// The same address carries the debug surfaces: /debug/traces (enabled by
// -trace-sample and/or -slow-op) shows end-to-end traces — one coordinator
// op with per-worker fan-out child spans and the workers' reported tick
// phases; see docs/TRACING.md — and -pprof adds /debug/pprof/.
//
// Stop with SIGINT/SIGTERM; connections drain and the process exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cpm/internal/cluster"
	"cpm/internal/cmdutil"
	"cpm/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7845", "listen address")
		workers     = flag.String("workers", "", "comma-separated worker addresses (required)")
		metricsAddr = flag.String("metrics", "", "serve plain-text metrics over HTTP on this address (empty = off)")
		verbose     = flag.Bool("v", false, "shorthand for -log-level debug")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")

		opTimeout        = flag.Duration("op-timeout", 5*time.Second, "per-operation worker answer deadline (miss = desync, re-synced by a later operation; <0 disables)")
		writeTimeout     = flag.Duration("write-timeout", 10*time.Second, "per-flush socket write deadline on client connections (<0 disables)")
		handshakeTimeout = flag.Duration("handshake-timeout", 10*time.Second, "deadline for a client's Hello frame (<0 disables)")

		traceSample = flag.Float64("trace-sample", 0, "trace head-sampling probability in [0,1] (0 = off)")
		slowOp      = flag.Duration("slow-op", 0, "force-record any op at least this slow into the flight recorder (0 = off)")
		traceCap    = flag.Int("trace-cap", 256, "flight-recorder capacity in traces")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/ on the -metrics address")
	)
	flag.Parse()
	if *verbose && *logLevel == "info" {
		*logLevel = "debug"
	}
	logger := cmdutil.Logger("cpmcoord", *logLevel)

	addrs := splitWorkers(*workers)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "cpmcoord: -workers is required (comma-separated addresses)")
		os.Exit(2)
	}

	copts := cluster.Options{Workers: addrs, OpTimeout: *opTimeout, Logf: cmdutil.Logf(logger)}
	coord, err := cluster.New(copts)
	if err != nil {
		cmdutil.Fatal(logger, "cluster startup failed", "err", err)
	}

	tracer := cmdutil.TraceConfig{Sample: *traceSample, SlowOp: *slowOp, Cap: *traceCap}.Build(logger)
	sopts := server.Options{
		WriteTimeout:     *writeTimeout,
		HandshakeTimeout: *handshakeTimeout,
		Logf:             cmdutil.Logf(logger),
		Tracer:           tracer,
	}
	srv := server.New(coord, sopts)

	// The startup line carries every resolved option, so operator logs
	// identify the configuration a running instance was launched with.
	logger.Info("starting",
		"addr", *addr, "workers", strings.Join(addrs, ","), "metrics", orOff(*metricsAddr),
		"op_timeout", *opTimeout, "write_timeout", *writeTimeout, "handshake_timeout", *handshakeTimeout,
		"trace_sample", *traceSample, "slow_op", *slowOp, "pprof", *pprofOn)

	if *metricsAddr != "" {
		go cmdutil.ServeMetrics(logger, *metricsAddr, tracer, *pprofOn, srv.Metrics().WriteText, coord.Metrics().WriteText)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		logger.Info("shutting down")
		srv.Close()
	}()

	if err := srv.ListenAndServe(*addr); err != nil && err != server.ErrClosed {
		cmdutil.Fatal(logger, "serve failed", "err", err)
	}
	coord.Close()
}

// splitWorkers parses the -workers flag, tolerating blanks.
func splitWorkers(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// orOff renders an optional address for the startup line.
func orOff(addr string) string {
	if addr == "" {
		return "off"
	}
	return addr
}
