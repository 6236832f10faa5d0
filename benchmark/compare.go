package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare: `benchmark compare A.json... -- B.json...` reads two sets of
// result files (--out) and judges B against A with the bounds BENCHMARK.json
// fixes. Per workload and end-to-end metric it prints both medians and a
// verdict: same, better, worse, or unresolved when either set's own runs lie
// further apart than the bound. Counts the program makes must be equal, when
// the two sets measured the same ticks of the same seeds. It exits non-zero
// on any worse, on unequal counts and on a larger share of failed operations.

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are the metrics that must repeat exactly for a seed and a tick
// count: counters of the program and properties of the generated stream.
func exactCount(name string) bool {
	switch name {
	case "core.short_circuit_pct", "grid.cell_cross_pct", "grid.invalid_updates", "e2e.updates_per_tick",
		"baseline.ypk_cells_per_query_tick", "baseline.sea_cells_per_query_tick":
		return true
	}
	return strings.HasPrefix(name, "core.") && strings.HasSuffix(name, "_tick")
}

func readSet(paths []string) (map[string][]result, error) {
	set := map[string][]result{}
	for _, p := range paths {
		doc, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []result
		if err := json.Unmarshal(doc, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rs {
			key := fmt.Sprintf("%s trace=%d", r.Workload, r.Trace)
			set[key] = append(set[key], r)
		}
	}
	return set, nil
}

// values returns the metric's value in every run of rs.
func values(rs []result, metric string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spreadOf is the distance between the quartiles as a share of the median;
// with fewer than four runs, between the extremes.
func spreadOf(vs []float64) float64 {
	med := median(vs)
	if med == 0 || len(vs) < 2 {
		return 0
	}
	if len(vs) < 4 {
		return (quantile(vs, 1) - quantile(vs, 0)) / med
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / med
}

// sameRuns reports whether two sets ran the same seeds for the same ticks,
// which is when the program's counts must be equal.
func sameRuns(a, b []result) bool {
	key := func(rs []result) string {
		var ks []string
		for _, r := range rs {
			ks = append(ks, fmt.Sprintf("%d/%d", r.Seed, r.Ticks))
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	return key(a) == key(b)
}

func failedShare(rs []result) float64 {
	var ops, failed int
	for _, r := range rs {
		ops += r.Ops
		failed += r.OpsFailed
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}

func compareMain(args []string, w io.Writer) int {
	var a, b []string
	cur := &a
	for _, arg := range args {
		if arg == "--" {
			cur = &b
			continue
		}
		*cur = append(*cur, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json... -- B.json...")
		return 2
	}
	root, ok := repoRoot()
	if !ok {
		fmt.Fprintln(os.Stderr, "compare: no BENCHMARK.json in the working directory or above it")
		return 2
	}
	var bf benchmarkFile
	doc, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(doc, &bf)
	}
	var setA, setB map[string][]result
	if err == nil {
		setA, err = readSet(a)
	}
	if err == nil {
		setB, err = readSet(b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	keys := make([]string, 0, len(setA))
	for k := range setA {
		if _, ok := setB[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	bad := 0
	for _, k := range keys {
		ra, rb := setA[k], setB[k]
		fmt.Fprintf(w, "%s: %d and %d runs\n", k, len(ra), len(rb))
		if fa, fb := failedShare(ra), failedShare(rb); fb > fa {
			fmt.Fprintf(w, "  ops_failed share %.6f -> %.6f  worse\n", fa, fb)
			bad++
		}
		for _, e := range bf.EndToEnd {
			va, vb := values(ra, e.Name), values(rb, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spreadOf(va), spreadOf(vb)
			change := (mb - ma) / ma
			if e.Better == "higher" {
				change = -change
			}
			verdict := "same"
			switch {
			case sa > e.Bound || sb > e.Bound:
				verdict = "unresolved"
			case change > e.Bound:
				verdict = "worse"
				bad++
			case change < -e.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "  %-18s %14.4f -> %14.4f  %+6.1f%% (bound %2.0f%%, spreads %4.1f%% %4.1f%%)  %s\n",
				e.Name, ma, mb, 100*(mb-ma)/ma, 100*e.Bound, 100*sa, 100*sb, verdict)
		}
		if !sameRuns(ra, rb) {
			fmt.Fprintln(w, "  counts not compared: the sets did not run the same seeds for the same ticks (use --ticks)")
			continue
		}
		sort.Slice(ra, func(i, j int) bool { return ra[i].Seed < ra[j].Seed })
		sort.Slice(rb, func(i, j int) bool { return rb[i].Seed < rb[j].Seed })
		unequal := 0
		for i := range ra {
			if ra[i].OracleChecked != rb[i].OracleChecked || ra[i].StreamHash != rb[i].StreamHash {
				fmt.Fprintf(w, "  seed %d: oracle_checked %d -> %d, stream %s -> %s  unequal\n", ra[i].Seed,
					ra[i].OracleChecked, rb[i].OracleChecked, ra[i].StreamHash, rb[i].StreamHash)
				unequal++
			}
			for name, m := range ra[i].Metrics {
				if exactCount(name) && m.Value != rb[i].Metrics[name].Value {
					fmt.Fprintf(w, "  seed %d: %s %v -> %v  unequal\n", ra[i].Seed, name, m.Value, rb[i].Metrics[name].Value)
					unequal++
				}
			}
		}
		if unequal == 0 {
			fmt.Fprintln(w, "  counts equal")
		}
		bad += unequal
	}
	if bad > 0 {
		return 1
	}
	return 0
}
