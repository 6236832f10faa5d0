// Command benchmark measures the CPM stack end to end and layer by layer on
// four named workloads, checks every answer against its own brute-force
// oracle and prints every metric by name with its unit. See README.md.
//
//	benchmark --workload paper-default --seed 1 --seconds 22 --trace 0
//	benchmark compare a.json b.json -- c.json d.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// line is the last line of a run's standard output.
type line struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 22, "how long to measure")
		ticks    = fs.Int("ticks", 0, "measure this many ticks instead of -seconds, so that counts repeat exactly")
		trace    = fs.Int("trace", 0, "0: the end-to-end pass, spans off; 1: the layer pass")
		smoke    = fs.Bool("smoke", false, "small shapes and 60 ticks, for tests")
		out      = fs.String("out", "", "also write the full results, as JSON, to this file")
		traceOut = fs.String("trace-out", "", "write the layer pass's spans, as JSON, to this file")
	)
	fs.Parse(args)

	// The box has two cores; the load generator and the system share them.
	runtime.GOMAXPROCS(2)
	b := budget{ticks: *ticks, seconds: *seconds}
	if *smoke && b.ticks == 0 {
		b.ticks = 60
	}
	var results []result
	for _, sp := range specs(*smoke) {
		if *workload != "all" && *workload != sp.name {
			continue
		}
		var res result
		var err error
		if *trace == 0 {
			res, err = endToEnd(sp, *seed, b, 3)
		} else {
			res, err = layerPass(sp, *seed, b, *traceOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *workload)
		return 2
	}
	if *out != "" {
		doc, _ := json.MarshalIndent(results, "", " ")
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, res := range results {
		fmt.Fprintf(os.Stderr, "%s seed=%d trace=%d nproc=%d ticks=%d ops=%d ops_failed=%d oracle_checked=%d tie_breaks=%d\n",
			res.Workload, res.Seed, res.Trace, res.Nproc, res.Ticks, res.Ops, res.OpsFailed, res.OracleChecked, res.TieBreaks)
		doc, _ := json.Marshal(line{Correct: res.OpsFailed == 0, Attempted: res.Ops, Failed: res.OpsFailed, Metrics: res.Metrics})
		fmt.Println(string(doc))
		if res.OpsFailed > 0 {
			code = 1
		}
	}
	return code
}
