package bench

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cpm/internal/model"
)

// The repro gate's ordering check (the gate itself, TestReproGate, sits
// behind the repro build tag): at every sweep point the paper's ordering,
// each method beating the next of the figure's columns, must hold on the
// median over the seeds, in CPU time and in cell accesses per query per
// tick.

// gateRow is one sweep point of one figure: per method, the medians over
// the seeds of its CPU time (ms) and of its cell accesses per query per
// tick.
type gateRow struct {
	fig, point string
	methods    []Method // fastest first, as the paper ranks them
	cpu, cells []float64
}

// gateLoss names one broken link of the ordering: at the point, on the
// metric ("cpu" or "cells"), method did not beat the method after it.
type gateLoss struct {
	fig, point, metric string
	method             Method
}

// gateRows reduces one figure's runs, indexed [seed][point][method], to
// one row of medians per point.
func gateRows(fig string, labels []string, methods []Method, runs [][][]Measurement) []gateRow {
	rows := make([]gateRow, len(labels))
	for p, label := range labels {
		r := gateRow{fig: fig, point: label, methods: methods}
		for m := range methods {
			var cpu, cells []float64
			for _, run := range runs {
				meas := run[p][m]
				cpu = append(cpu, float64(meas.Elapsed.Microseconds())/1000)
				cells = append(cells, meas.CellsPerQueryPerCycle())
			}
			r.cpu = append(r.cpu, median(cpu))
			r.cells = append(r.cells, median(cells))
		}
		rows[p] = r
	}
	return rows
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// checkOrder holds rows to the ordering. A loss fails unless allow lists
// it; an allow-listed loss that did not happen is returned as removable,
// so the list can only shrink.
func checkOrder(rows []gateRow, allow map[gateLoss]string) (fails []string, removable []gateLoss) {
	lost := map[gateLoss]bool{}
	for _, r := range rows {
		for _, m := range []struct {
			name string
			v    []float64
		}{{"cpu", r.cpu}, {"cells", r.cells}} {
			for i := 0; i+1 < len(r.methods); i++ {
				if m.v[i] < m.v[i+1] {
					continue
				}
				l := gateLoss{r.fig, r.point, m.name, r.methods[i]}
				lost[l] = true
				if _, ok := allow[l]; !ok {
					fails = append(fails, fmt.Sprintf("%s at %s, %s: %s %.4g is not below %s %.4g",
						r.fig, r.point, m.name, r.methods[i], m.v[i], r.methods[i+1], m.v[i+1]))
				}
			}
		}
	}
	for l := range allow {
		if !lost[l] {
			removable = append(removable, l)
		}
	}
	slices.SortFunc(removable, func(a, b gateLoss) int {
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	})
	return fails, removable
}

// gateMeas is a hand-made measurement: ms of CPU time and cell accesses
// per query per tick.
func gateMeas(ms, cells float64) Measurement {
	return Measurement{
		Elapsed:    time.Duration(ms * float64(time.Millisecond)),
		Stats:      model.Stats{CellAccesses: int64(cells)},
		Queries:    1,
		Timestamps: 1,
	}
}

// TestGateOrderingCheck is the gate's negative control: the ordering check
// fed hand-made measurements over three seeds.
func TestGateOrderingCheck(t *testing.T) {
	methods := []Method{CPM, YPK, SEA}
	// [seed][point][method]: k=16 wins everywhere; k=256 has CPM behind
	// YPK-CNN in CPU time on two of the three seeds, so on the median.
	runs := [][][]Measurement{
		{{gateMeas(10, 5), gateMeas(12, 9), gateMeas(30, 20)}, {gateMeas(3158, 40), gateMeas(2711, 90), gateMeas(9000, 99)}},
		{{gateMeas(11, 5), gateMeas(12, 9), gateMeas(31, 20)}, {gateMeas(2000, 40), gateMeas(2700, 90), gateMeas(9000, 99)}},
		{{gateMeas(99, 5), gateMeas(13, 9), gateMeas(29, 20)}, {gateMeas(3100, 40), gateMeas(2750, 90), gateMeas(9100, 99)}},
	}
	rows := gateRows("fig6.3a", []string{"16", "256"}, methods, runs)
	if got := rows[0].cpu; !slices.Equal(got, []float64{11, 12, 30}) {
		t.Fatalf("k=16 CPU medians %v, want [11 12 30]: one slow seed must not decide", got)
	}
	k256 := gateLoss{"fig6.3a", "256", "cpu", CPM}

	fails, removable := checkOrder(rows, nil)
	if len(fails) != 1 || !strings.Contains(fails[0], "fig6.3a at 256, cpu: CPM 3100") || len(removable) != 0 {
		t.Errorf("a loss off the allow-list: fails %q, removable %v; want the k=256 CPU loss to fail", fails, removable)
	}

	fails, removable = checkOrder(rows, map[gateLoss]string{k256: "CPM 3100 ms, YPK-CNN 2711 ms"})
	if len(fails) != 0 || len(removable) != 0 {
		t.Errorf("an allow-listed loss: fails %q, removable %v; want it to pass", fails, removable)
	}

	wins := gateLoss{"fig6.3a", "16", "cells", YPK}
	fails, removable = checkOrder(rows, map[gateLoss]string{k256: "", wins: ""})
	if len(fails) != 0 || !slices.Equal(removable, []gateLoss{wins}) {
		t.Errorf("an allow-listed point that wins: fails %q, removable %v; want it removable", fails, removable)
	}

	// A tie is a loss, and a two-method figure (Fig 6.6a) checks one link.
	tie := gateRows("fig6.6a", []string{"10K"}, []Method{CPM, YPK},
		[][][]Measurement{{{gateMeas(89, 7), gateMeas(89, 8)}}})
	if fails, _ := checkOrder(tie, nil); len(fails) != 1 || !strings.Contains(fails[0], "fig6.6a at 10K, cpu") {
		t.Errorf("a tie: fails %q, want one CPU loss", fails)
	}
}
