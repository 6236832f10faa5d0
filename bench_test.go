// Benchmarks regenerating the paper's evaluation, one per table/figure
// (`cpmbench -list` maps ids to the paper's figures). Each benchmark iteration runs a
// complete scaled-down simulation — workload generation excluded from the
// timed section via the harness, which times only ProcessBatch.
//
// go test -bench=. -benchmem runs everything at laptop scale in a few
// minutes; cmd/cpmbench runs the same experiments at larger scales and
// prints the paper-style tables. Reported custom metrics:
//
//	ms/cycle    mean processing time per timestamp
//	cells/q/ts  cell accesses per query per timestamp (Figure 6.3b's metric)
package cpm_test

import (
	"testing"

	"cpm/internal/bench"
	"cpm/internal/generator"
	"cpm/internal/geom"
	"cpm/internal/network"
)

// benchScale keeps `go test -bench=.` quick: 2K objects, 100 queries.
const benchScale = 0.02

func benchConfig(mutate func(*bench.Config)) bench.Config {
	gen := generator.Defaults(benchScale)
	gen.Seed = 11
	cfg := bench.Config{
		GridSize:   64,
		K:          16,
		Timestamps: 10,
		Net:        network.GenOptions{Width: 16, Height: 16, Seed: 7},
		Gen:        gen,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func runSim(b *testing.B, method bench.Method, cfg bench.Config) {
	b.Helper()
	var last bench.Measurement
	for i := 0; i < b.N; i++ {
		meas, err := bench.RunMethod(method, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = meas
	}
	b.ReportMetric(float64(last.PerCycle().Microseconds())/1000, "ms/cycle")
	b.ReportMetric(last.CellsPerQueryPerCycle(), "cells/q/ts")
}

func perMethod(b *testing.B, methods []bench.Method, cfg bench.Config) {
	b.Helper()
	for _, m := range methods {
		b.Run(m.String(), func(b *testing.B) { runSim(b, m, cfg) })
	}
}

// BenchmarkFig61Grid: CPU time versus grid granularity (paper Figure 6.1).
func BenchmarkFig61Grid(b *testing.B) {
	for _, grid := range []int{32, 128, 512} {
		b.Run(bench.CPM.String()+"/grid="+itoa(grid), func(b *testing.B) {
			runSim(b, bench.CPM, benchConfig(func(c *bench.Config) { c.GridSize = grid }))
		})
		b.Run(bench.YPK.String()+"/grid="+itoa(grid), func(b *testing.B) {
			runSim(b, bench.YPK, benchConfig(func(c *bench.Config) { c.GridSize = grid }))
		})
		b.Run(bench.SEA.String()+"/grid="+itoa(grid), func(b *testing.B) {
			runSim(b, bench.SEA, benchConfig(func(c *bench.Config) { c.GridSize = grid }))
		})
	}
}

// BenchmarkFig62aPopulation: CPU time versus N (paper Figure 6.2a).
func BenchmarkFig62aPopulation(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		cfg := benchConfig(func(c *bench.Config) { c.Gen.N = n })
		b.Run("N="+itoa(n), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig62bQueries: CPU time versus n (paper Figure 6.2b).
func BenchmarkFig62bQueries(b *testing.B) {
	for _, n := range []int{50, 200} {
		cfg := benchConfig(func(c *bench.Config) { c.Gen.NumQueries = n })
		b.Run("n="+itoa(n), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig63K: CPU time and cell accesses versus k (paper Figures 6.3a
// and 6.3b — both metrics are reported on every run).
func BenchmarkFig63K(b *testing.B) {
	for _, k := range []int{1, 16, 64} {
		cfg := benchConfig(func(c *bench.Config) { c.K = k })
		b.Run("k="+itoa(k), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig64aObjectSpeed: CPU time versus object speed (Figure 6.4a).
func BenchmarkFig64aObjectSpeed(b *testing.B) {
	for _, s := range []generator.Speed{generator.Slow, generator.Fast} {
		cfg := benchConfig(func(c *bench.Config) { c.Gen.ObjectSpeed = s })
		b.Run(s.String(), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig64bQuerySpeed: CPU time versus query speed (Figure 6.4b).
func BenchmarkFig64bQuerySpeed(b *testing.B) {
	for _, s := range []generator.Speed{generator.Slow, generator.Fast} {
		cfg := benchConfig(func(c *bench.Config) { c.Gen.QuerySpeed = s })
		b.Run(s.String(), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig65aObjectAgility: CPU time versus f_obj (Figure 6.5a).
func BenchmarkFig65aObjectAgility(b *testing.B) {
	for _, f := range []float64{0.1, 0.5} {
		cfg := benchConfig(func(c *bench.Config) { c.Gen.ObjectAgility = f })
		b.Run("fobj="+pct(f), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig65bQueryAgility: CPU time versus f_qry (Figure 6.5b).
func BenchmarkFig65bQueryAgility(b *testing.B) {
	for _, f := range []float64{0.1, 0.5} {
		cfg := benchConfig(func(c *bench.Config) { c.Gen.QueryAgility = f })
		b.Run("fqry="+pct(f), func(b *testing.B) { perMethod(b, bench.AllMethods, cfg) })
	}
}

// BenchmarkFig66aMovingQueries: constantly moving queries isolate the NN
// computation modules; CPM versus YPK-CNN as in the paper (Figure 6.6a).
func BenchmarkFig66aMovingQueries(b *testing.B) {
	cfg := benchConfig(func(c *bench.Config) { c.Gen.QueryAgility = 1 })
	perMethod(b, []bench.Method{bench.CPM, bench.YPK}, cfg)
}

// BenchmarkFig66bStaticQueries: pure result-maintenance cost (Figure 6.6b).
func BenchmarkFig66bStaticQueries(b *testing.B) {
	cfg := benchConfig(func(c *bench.Config) { c.Gen.QueryAgility = 0 })
	perMethod(b, bench.AllMethods, cfg)
}

// BenchmarkAblationRecompute: X1 — visit-list replay versus the
// memory-pressure from-scratch fallback.
func BenchmarkAblationRecompute(b *testing.B) {
	cfg := benchConfig(nil)
	perMethod(b, []bench.Method{bench.CPM, bench.CPMDropBookkeeping}, cfg)
}

// BenchmarkAblationBatch: X2 — batched cycles versus per-update handling.
func BenchmarkAblationBatch(b *testing.B) {
	cfg := benchConfig(nil)
	perMethod(b, []bench.Method{bench.CPM, bench.CPMPerUpdate}, cfg)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func pct(f float64) string { return itoa(int(f*100)) + "%" }

// BenchmarkANN: X3 — aggregate NN monitoring (Section 5 extension), per
// aggregate function.
func BenchmarkANN(b *testing.B) {
	cfg := benchConfig(func(c *bench.Config) { c.Gen.NumQueries = 0 })
	for _, agg := range []geom.Agg{geom.AggSum, geom.AggMin, geom.AggMax} {
		b.Run(agg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunANN(cfg, 100, 4, agg, 13); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
