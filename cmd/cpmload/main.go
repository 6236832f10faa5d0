// Command cpmload drives open-loop load against a running cpmserver and
// reports per-operation end-to-end latency percentiles.
//
// It schedules Poisson arrivals at -rate across -conns connections — a mix
// of batched object-move ticks (remote ingest), empty ticks, ephemeral
// query registrations and delivery-probe toggles — and measures each
// operation from its scheduled arrival time, so server stalls surface as
// queueing latency instead of silently throttling the driver (no
// coordinated omission). The probe ops additionally measure the push
// pipeline: the time from a probe object's toggle to the resulting diff
// arriving on a subscription.
//
//	cpmserver -addr :7845 &
//	cpmload -addr localhost:7845 -rate 500 -duration 10s
//
// The summary prints one row per op type (ingest, tick, register,
// deliver) with completed-op counts, the mean and p50/p99/p999.
//
// With -trace every driven op is stamped with a trace context, and the
// report ends with the -trace-top slowest ops: the client-observed
// latency plus the server-side span breakdown (tick phases; behind a
// coordinator, per-worker fan-out and merge) pulled from the server's
// flight recorder — see docs/TRACING.md. The server must run with
// tracing enabled (-trace-sample/-slow-op) for the breakdowns to appear.
//
// See docs/OPERATIONS.md for how the load harness fits the serving
// deployment story.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cpm/internal/cmdutil"
	"cpm/internal/load"
	"cpm/internal/tracing"
)

func main() {
	var (
		addr     = flag.String("addr", "", "cpmserver address to drive (required)")
		conns    = flag.Int("conns", 4, "concurrent client connections")
		rate     = flag.Float64("rate", 200, "aggregate scheduled arrival rate (ops/sec)")
		duration = flag.Duration("duration", 5*time.Second, "scheduling window")
		maxOps   = flag.Int64("max-ops", 0, "additional cap on scheduled operations (0 = none)")
		objects  = flag.Int("n", 2000, "bootstrapped object population")
		queries  = flag.Int("queries", 50, "standing k-NN queries registered before the run")
		k        = flag.Int("k", 8, "neighbors per standing query")
		batch    = flag.Int("batch", 16, "object moves per ingest operation")
		seed     = flag.Int64("seed", 1, "workload and arrival-process seed")
		trace    = flag.Bool("trace", false, "stamp ops with trace contexts and report the slowest with server-side breakdowns")
		traceTop = flag.Int("trace-top", 5, "slowest traced ops to report (-trace)")
		verbose  = flag.Bool("v", false, "shorthand for -log-level debug")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	)
	flag.Parse()
	if *verbose && *logLevel == "info" {
		*logLevel = "debug"
	}
	logger := cmdutil.Logger("cpmload", *logLevel)
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "cpmload: -addr is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := load.Options{
		Addr:     *addr,
		Conns:    *conns,
		Rate:     *rate,
		Duration: *duration,
		MaxOps:   *maxOps,
		Objects:  *objects,
		Queries:  *queries,
		K:        *k,
		Batch:    *batch,
		Seed:     *seed,
		Trace:    *trace,
		Logf:     cmdutil.Logf(logger),
	}
	res, err := load.Run(opts)
	if err != nil {
		cmdutil.Fatal(logger, "run failed", "err", err)
	}

	fmt.Printf("cpmload: %s for %v at %g ops/s over %d conns (errors=%d shed=%d gaps=%d)\n",
		*addr, res.Elapsed.Round(time.Millisecond), *rate, *conns, res.Errors, res.Shed, res.Gaps)
	fmt.Printf("%-14s %8s %12s %12s %12s %12s\n", "op", "ops", "mean", "p50", "p99", "p999")
	for _, op := range res.Ops() {
		n, mean := op.Hist.Count(), time.Duration(0)
		if n > 0 {
			mean = time.Duration(op.Hist.SumNs() / n)
		}
		fmt.Printf("%-14s %8d %12v %12v %12v %12v\n", op.Name, n, mean,
			time.Duration(op.Hist.Quantile(0.50)), time.Duration(op.Hist.Quantile(0.99)),
			time.Duration(op.Hist.Quantile(0.999)))
	}
	if *trace {
		printTraceReport(res, *traceTop)
	}

	if res.Errors > 0 {
		os.Exit(1)
	}
}

// printTraceReport prints the k slowest traced ops with their server-side
// span breakdowns: each client-observed latency (scheduled arrival to
// completion, queueing included) above the spans the server recorded for
// that trace id — tick phases on a single server, per-worker fan-out and
// merge behind a coordinator. The difference between the client latency
// and the server's root span is queueing plus the network.
func printTraceReport(res *load.Result, k int) {
	byID := make(map[uint64]tracing.RecordedTrace, len(res.ServerTraces))
	for _, tr := range res.ServerTraces {
		byID[tr.TraceID] = tr
	}
	fmt.Printf("\nslowest traced ops (%d of %d traced, %d server traces):\n",
		min(k, len(res.Traced)), len(res.Traced), len(res.ServerTraces))
	for i, op := range res.Traced {
		if i >= k {
			break
		}
		fmt.Printf("%2d. %-9s trace=%016x latency=%v\n", i+1, op.Kind, op.TraceID, time.Duration(op.DurNs))
		tr, ok := byID[op.TraceID]
		if !ok {
			fmt.Printf("    (no server trace recorded — evicted from the ring, or tracing disabled server-side)\n")
			continue
		}
		spans := append([]tracing.RecordedSpan(nil), tr.Spans...)
		sort.Slice(spans, func(a, b int) bool { return spans[a].OffsetNs < spans[b].OffsetNs })
		for _, s := range spans {
			fmt.Printf("    %-24s %12v  (+%v)\n", s.Name, time.Duration(s.DurNs), time.Duration(s.OffsetNs))
		}
	}
}
