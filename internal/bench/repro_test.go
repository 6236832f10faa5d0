//go:build repro

package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// reproAllow lists the points where the reproduction breaks the paper's
// ordering, each with the medians measured when it was listed (2-core Xeon
// at 2.1 GHz, go1.24; where a point lost in some runs and won in others,
// one run of each). An entry goes once its point wins every run; the gate
// logs the ones that win.
var reproAllow = map[gateLoss]string{
	// The coarsest grid: the two baselines come out level.
	{"fig6.1", "32^2", "cpu", YPK}:   "YPK-CNN 939 ms, SEA-CNN 917 ms; won 593 against 614",
	{"fig6.1", "32^2", "cells", YPK}: "YPK-CNN 17.9, SEA-CNN 14.7 cells/query/tick",
	// Sparse data and large k: the losses ROADMAP item 3 is about.
	{"fig6.2a", "10K", "cpu", CPM}: "CPM 150 ms, YPK-CNN 145 ms; won 110 against 123",
	{"fig6.3a", "256", "cpu", CPM}: "CPM 3 518 ms, YPK-CNN 2 368 ms",
}

// TestReproGate runs Figures 6.1, 6.2a, 6.3a and 6.6a at the paper's
// scale (Table 6.1: N=100K, n=5K), three timestamps per run, over seeds
// 1, 2 and 3, and holds every sweep point to CPM < YPK-CNN < SEA-CNN in
// CPU time and in cell accesses per query per tick, on the median of the
// seeds. The CPM-shard column is not part of the paper's ordering and is
// not run. `make repro-gate` runs it (about 3 minutes on two cores).
func TestReproGate(t *testing.T) {
	start := time.Now()
	seeds := []int64{1, 2, 3}
	var rows []gateRow
	for _, fig := range []sweep{fig61, fig62a, fig63a, fig66a} {
		fig.methods = slices.DeleteFunc(slices.Clone(fig.methods), func(m Method) bool { return m == CPMSharded })
		var labels []string
		runs := make([][][]Measurement, len(seeds))
		for i, seed := range seeds {
			tbl, meas, err := fig.run(Options{Scale: 1, Timestamps: 3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = meas
			labels = labels[:0]
			for _, row := range tbl.Rows {
				labels = append(labels, row[0])
			}
		}
		figRows := gateRows(fig.id, labels, fig.methods, runs)
		for _, r := range figRows {
			var cpu, cells []string
			for i, m := range r.methods {
				cpu = append(cpu, fmt.Sprintf("%s %.4g", m, r.cpu[i]))
				cells = append(cells, fmt.Sprintf("%s %.4g", m, r.cells[i]))
			}
			t.Logf("%s %s: CPU ms %s; cells/query/tick %s", r.fig, r.point,
				strings.Join(cpu, ", "), strings.Join(cells, ", "))
		}
		t.Logf("%s done at %v", fig.id, time.Since(start).Round(time.Second))
		rows = append(rows, figRows...)
	}
	fails, removable := checkOrder(rows, reproAllow)
	for _, l := range removable {
		t.Logf("allow-listed %s at %s (%s, %s) now wins: remove it", l.fig, l.point, l.metric, l.method)
	}
	for _, f := range fails {
		t.Error(f)
	}
	t.Logf("repro gate: %d points, %d allow-listed losses, %v", len(rows), len(reproAllow), time.Since(start).Round(time.Second))
}
