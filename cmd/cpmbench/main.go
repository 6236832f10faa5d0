// Command cpmbench regenerates the paper's evaluation (Section 6 of
// Mouratidis et al., SIGMOD 2005): one table per figure, comparing CPM
// against YPK-CNN and SEA-CNN over identical network workloads, plus this
// repository's model-validation, ANN and ablation experiments.
//
// Usage:
//
//	cpmbench -list
//	cpmbench -exp fig6.1,fig6.3b -scale 0.05 -ts 20
//	cpmbench -exp all -scale 0.02 -csvdir results/
//	cpmbench -exp fig6.3a -scale 1 -ts 3 -shards 8
//
// -shards sets the worker count of the CPM-shard method column (default:
// all usable cores).
//
// -scale multiplies the paper's population sizes (1.0 = N=100K objects and
// n=5K queries; the default 0.05 runs every experiment on a laptop in
// minutes). Small scales do not keep the paper's ordering in CPU time
// (cell accesses hold better); `make repro-gate` checks it at scale 1.
// Absolute milliseconds are not comparable to the paper's 2005 hardware.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cpm/internal/bench"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available experiments and exit")
		exp    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale  = flag.Float64("scale", 0.05, "population scale (1.0 = paper's N=100K, n=5K)")
		ts     = flag.Int("ts", 20, "timestamps per simulation (paper: 100)")
		seed   = flag.Int64("seed", 1, "workload seed")
		grid   = flag.Int("grid", 128, "default grid size (cells per dimension)")
		csvdir = flag.String("csvdir", "", "directory for per-experiment CSV output (optional)")
		shards = flag.Int("shards", 0, "CPM-shard worker count (0 = all usable cores)")
	)
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "cpmbench: -shards must be non-negative (0 = all usable cores)\n")
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	switch *exp {
	case "all":
		selected = bench.All()
	default:
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "cpmbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	opts := bench.Options{Scale: *scale, Timestamps: *ts, Seed: *seed, GridSize: *grid, Shards: *shards}
	fmt.Printf("cpmbench: scale=%.3g ts=%d grid=%d seed=%d shards=%d (%d experiments)\n\n",
		*scale, *ts, *grid, *seed, bench.ResolveShards(*shards), len(selected))

	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "running %s ...\n", e.ID)
		table, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpmbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := table.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cpmbench: render: %v\n", err)
			os.Exit(1)
		}
		if *csvdir != "" {
			if err := os.MkdirAll(*csvdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "cpmbench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvdir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "cpmbench: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
