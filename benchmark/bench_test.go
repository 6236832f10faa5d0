package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cpm"
)

// smokeBudget is the fixed number of ticks the tests measure, so that counts
// repeat exactly.
var smokeBudget = budget{ticks: 60}

func smokeSpec(t *testing.T, name string) spec {
	for _, sp := range specs(true) {
		if sp.name == name {
			return sp
		}
	}
	t.Fatalf("no workload %q", name)
	return spec{}
}

// Every workload runs end to end and through the layer pass at smoke size,
// passes the oracle and prints every metric BENCHMARK.json promises.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, sp := range specs(true) {
		e2e, err := endToEnd(sp, 1, smokeBudget, 2)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		layers, err := layerPass(sp, 1, smokeBudget, "")
		if err != nil {
			t.Fatalf("%s: layer pass: %v", sp.name, err)
		}
		for _, res := range []result{e2e, layers} {
			if res.OpsFailed != 0 || res.Ops == 0 || res.OracleChecked == 0 {
				t.Errorf("%s trace=%d: ops=%d ops_failed=%d oracle_checked=%d", sp.name, res.Trace, res.Ops, res.OpsFailed, res.OracleChecked)
			}
		}
		for name, unit := range endToEndUnits {
			if m := e2e.Metrics[name]; m.Value <= 0 || m.Unit != unit {
				t.Errorf("%s: %s = %v %q, want a positive number of %q", sp.name, name, m.Value, m.Unit, unit)
			}
		}
		for name, unit := range layerUnits {
			if m, ok := layers.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("%s: layer metric %s missing or in %q, want %q", sp.name, name, m.Unit, unit)
			}
		}
		if len(layers.Metrics) != len(layerUnits) {
			t.Errorf("%s: %d layer metrics, want %d", sp.name, len(layers.Metrics), len(layerUnits))
		}
		if got := layers.Metrics["e2e.unattributed_pct"].Value; got == 0 {
			t.Errorf("%s: e2e.unattributed_pct not reported", sp.name)
		}
	}
}

// The same seed gives the same stream and the same counts, another seed
// another stream.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"paper-default", "query-churn"} {
		sp := smokeSpec(t, name)
		a, err := layerPass(sp, 7, smokeBudget, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := layerPass(sp, 7, smokeBudget, "")
		if err != nil {
			t.Fatal(err)
		}
		if a.StreamHash != b.StreamHash || a.OracleChecked != b.OracleChecked || a.Ops != b.Ops {
			t.Errorf("%s: stream %s/%s, oracle_checked %d/%d, ops %d/%d", name,
				a.StreamHash, b.StreamHash, a.OracleChecked, b.OracleChecked, a.Ops, b.Ops)
		}
		counts := 0
		for metric, m := range a.Metrics {
			if exactCount(metric) {
				counts++
				if m.Value != b.Metrics[metric].Value {
					t.Errorf("%s: %s = %v, then %v", name, metric, m.Value, b.Metrics[metric].Value)
				}
			}
		}
		if counts < 8 {
			t.Errorf("%s: only %d count metrics compared", name, counts)
		}
		c, err := layerPass(sp, 8, smokeBudget, "")
		if err != nil {
			t.Fatal(err)
		}
		if c.StreamHash == a.StreamHash {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// The staged rig gives, tick for tick, exactly the results of cpm.Monitor on
// the same stream.
func TestStagedRigEqualsMonitor(t *testing.T) {
	sp := smokeSpec(t, "query-churn")
	var staged *stagedTarget
	r, err := setUp(sp, 3, func(r *run) error {
		staged = newStaged(sp.grid, newRecorder())
		r.lanes = []*lane{
			{name: "monitor", tg: monitorTarget{cpm.NewMonitor(cpm.Options{GridSize: sp.grid})}},
			{name: "staged", tg: staged},
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for tick := 0; tick < 40; tick++ {
		chunk := r.st.next(1)
		for _, l := range r.lanes {
			r.runChunk(l, chunk, closed, nil)
		}
		for _, d := range r.st.queries() {
			want, _ := r.lanes[0].tg.result(d.id)
			got, _ := staged.result(d.id)
			if len(got) != len(want) {
				t.Fatalf("tick %d query %d: %d neighbours, monitor has %d", tick, d.id, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("tick %d query %d: neighbour %d is %v, monitor has %v", tick, d.id, i, got[i], want[i])
				}
			}
		}
	}
	if r.ops.failed != 0 {
		t.Errorf("%d operations failed", r.ops.failed)
	}
}

// drift never leaves the unit square, and moves every object every tick.
func TestDriftStaysInside(t *testing.T) {
	s := newDriftStream(300, 5, 128, 1)
	s.objects()
	for tick := 0; tick < 500; tick++ {
		in := s.next(1)[0]
		if len(in.batch.Objects) != 301 {
			t.Fatalf("tick %d: %d updates, want 301", tick, len(in.batch.Objects))
		}
		for _, u := range in.batch.Objects {
			if u.New.X < 0 || u.New.X > 1 || u.New.Y < 0 || u.New.Y > 1 {
				t.Fatalf("tick %d: object %d at %v", tick, u.ID, u.New)
			}
		}
	}
}

// A retained chunk keeps its ticks when the stream goes on, in either mode,
// and the stream generates what it would have generated without retaining.
func TestRetainedChunksStayValid(t *testing.T) {
	for _, name := range []string{"query-churn", "update-heavy"} {
		sp := smokeSpec(t, name)
		plain, _ := sp.stream(5)
		kept, _ := sp.stream(5)
		plain.objects()
		kept.objects()
		hashOf := func(chunk []tickInput) uint64 {
			var h hasher
			for _, in := range chunk {
				h.batch(in.batch)
				for _, d := range in.churn {
					h.batch(cpm.Batch{Queries: []cpm.QueryUpdate{{ID: d.id, NewPoints: d.pts}}})
				}
			}
			return uint64(h)
		}
		kept.next(3) // buffers to reuse exist
		kept.retain(true)
		chunk := kept.next(4)
		at := kept.state().clone()
		kept.retain(false)
		want := hashOf(chunk)
		kept.next(4)
		kept.next(2)
		if got := hashOf(chunk); got != want {
			t.Errorf("%s: a retained chunk changed when the stream went on", name)
		}
		if d, _ := differs(answer(at, at.defs[0]), answer(kept.state(), kept.state().defs[0])); name == "query-churn" && d == "" {
			t.Errorf("%s: the cloned state moved on with the stream", name)
		}
		plain.next(13)
		if plain.sum() != kept.sum() {
			t.Errorf("%s: retaining changed the stream", name)
		}
	}
}

// The paced schedule has one origin: a stall is still owed after the chunk it
// happened in, and after a pause for the benchmark's own work.
func TestScheduleCarriesLateness(t *testing.T) {
	period := time.Second / pacedRate
	// Five ticks sent, the last of them done eight periods after the origin:
	// the system is three ticks behind when the oracle's turn comes.
	paused := time.Now()
	origin := paused.Add(-8 * period)
	s := schedule{origin: origin, paused: paused, sent: 5}
	time.Sleep(50 * time.Millisecond) // the oracle runs
	s.resume()
	// The clock reads what it read at the pause, eight periods, so tick 5,
	// due at five, is still three late.
	if clock := time.Since(s.origin); clock < 8*period || clock > 8*period+25*time.Millisecond {
		t.Errorf("the clock reads %v after the pause, want %v", clock, 8*period)
	}
	if due := s.next().Sub(s.origin); due != 5*period {
		t.Errorf("tick 5 is due at %v, want %v", due, 5*period)
	}
}

// idleTarget does nothing, so that what runChunk counts between its two
// readings of Mallocs is the benchmark's own.
type idleTarget struct{}

func (idleTarget) bootstrap(map[cpm.ObjectID]cpm.Point) error { return nil }
func (idleTarget) register(qdef) error                        { return nil }
func (idleTarget) remove(cpm.QueryID) error                   { return nil }
func (idleTarget) tick(cpm.Batch) error                       { return nil }
func (idleTarget) result(cpm.QueryID) ([]cpm.Neighbor, error) { return nil, nil }
func (idleTarget) watch(cpm.QueryID) (*probe, error)          { return nil, nil }
func (idleTarget) close()                                     {}

// allocs_per_tick is the program's: driving a tick and counting its
// operations allocates nothing but the growth of the sample slices.
func TestHarnessAllocatesUnderOnePerTick(t *testing.T) {
	sp := smokeSpec(t, "query-churn") // three re-registrations a tick
	st, err := sp.stream(1)
	if err != nil {
		t.Fatal(err)
	}
	st.objects()
	r := &run{sp: sp, st: st}
	l := &lane{name: "idle", tg: idleTarget{}}
	var s samples
	for i := 0; i < 5; i++ {
		r.runChunk(l, st.next(100), closed, &s)
	}
	if got := median(s.allocs); got >= 1 {
		t.Errorf("the benchmark allocates %.2f times per tick of its own: %v", got, s.allocs)
	}
}

// A budget too small for a block, or for one registration in a block, is
// measured all the same: one tick to a phase at the least.
func TestTinyBudgets(t *testing.T) {
	if b := (budget{ticks: 1}).scaled(pacedShare); b.ticks != 1 {
		t.Errorf("a share of one tick is %d ticks", b.ticks)
	}
	if b := (budget{seconds: 1}).scaled(0.5); b.ticks != 0 || b.seconds != 0.5 {
		t.Errorf("half of a second is %+v", b)
	}
	if n := regBlock(&samples{}); n != 1 {
		t.Errorf("block of %d registrations for no sample", n)
	}
	if starts, size := quietBlocks([]float64{3, 1, 2}, 0); len(starts) == 0 || size != 1 {
		t.Errorf("blocks of no samples: %v, %d", starts, size)
	}
	for _, b := range []budget{{ticks: 1}, {seconds: 0.001}} {
		res, err := endToEnd(smokeSpec(t, "served-cluster"), 1, b, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.OpsFailed != 0 || res.Ticks < 2 {
			t.Errorf("%+v: %d ticks, %d operations failed", b, res.Ticks, res.OpsFailed)
		}
	}
}

func TestOracle(t *testing.T) {
	m := &mirror{}
	for id, p := range []cpm.Point{{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.5}, {X: 0.4, Y: 0.5}, {X: 0.9, Y: 0.9}, {X: 0.5, Y: 0.52}} {
		m.set(cpm.ObjectID(id), p)
	}
	m.alive[4] = false
	q := []cpm.Point{{X: 0.5, Y: 0.5}}
	ids := func(ns []cpm.Neighbor) (out []cpm.ObjectID) {
		for _, n := range ns {
			out = append(out, n.ID)
		}
		return out
	}
	same := func(got []cpm.ObjectID, want ...cpm.ObjectID) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	// Objects 1 and 2 tie at 0.1: the lower id comes first; 4 is dead.
	if got := ids(answer(m, qdef{kind: kindPoint, pts: q, k: 3})); !same(got, 0, 1, 2) {
		t.Errorf("3-NN = %v", got)
	}
	if got := ids(answer(m, qdef{kind: kindPoint, pts: q, k: 2})); !same(got, 0, 1) {
		t.Errorf("2-NN = %v", got)
	}
	if got := ids(answer(m, qdef{kind: kindRange, pts: q, radius: 0.1})); !same(got, 0, 1, 2) {
		t.Errorf("range = %v", got)
	}
	region := cpm.Rect{Lo: cpm.Point{X: 0.55, Y: 0}, Hi: cpm.Point{X: 1, Y: 1}}
	if got := ids(answer(m, qdef{kind: kindConstrained, pts: q, k: 5, region: region})); !same(got, 1, 3) {
		t.Errorf("constrained = %v", got)
	}
	three := []cpm.Point{{X: 0.4, Y: 0.5}, {X: 0.4, Y: 0.5}, {X: 0.4, Y: 0.5}}
	if got := answer(m, qdef{kind: kindAgg, pts: three, k: 1}); len(got) != 1 || got[0].ID != 2 || got[0].Dist != 0 {
		t.Errorf("aggregate = %v", got)
	}
	three3, two := answer(m, qdef{kind: kindPoint, pts: q, k: 3}), answer(m, qdef{kind: kindPoint, pts: q, k: 2})
	if d, _ := differs(three3, two); d == "" {
		t.Error("differs misses a missing neighbour")
	}
	// Keeping object 2 instead of 1 at the cut-off is a tie; swapping the
	// tied pair inside the result is a wrong order.
	if d, tie := differs([]cpm.Neighbor{two[0], three3[2]}, two); d != "" || !tie {
		t.Errorf("a tie at the cut-off: %q, tie %v", d, tie)
	}
	four := answer(m, qdef{kind: kindPoint, pts: q, k: 4})
	if d, _ := differs([]cpm.Neighbor{four[0], four[2], four[1], four[3]}, four); d == "" {
		t.Error("differs misses a wrong order among tied neighbours inside the result")
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program prints
// and stays within the limits of the contract.
func TestBenchmarkFile(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	all := specs(false)
	if len(bf.Workloads) != len(all) {
		t.Errorf("%d workloads, the program has %d", len(bf.Workloads), len(all))
	}
	for i, w := range bf.Workloads {
		if i < len(all) && w.Name != all[i].name {
			t.Errorf("workload %d is %q, the program has %q", i, w.Name, all[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want map[string]string, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics, the program prints %d", len(got), kind, len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit || !name.MatchString(m.Name) {
				t.Errorf("%s metric %q in %q: the program prints it in %q", kind, m.Name, m.Unit, want[m.Name])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEndUnits, true)
	check("per-layer", bf.PerLayer, layerUnits, false)
	if len(bf.PerLayer) > 128 || bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("per_layer %d, run_seconds %d, paths %v", len(bf.PerLayer), bf.RunSeconds, bf.Paths)
	}
	if runs := 4 + 22*len(bf.Workloads); runs*(bf.RunSeconds+15) > 3420 {
		t.Errorf("%d runs of %d s and their set-up do not fit 3420 s", runs, bf.RunSeconds)
	}
}

// compare tells same from worse from unresolved, and wants equal counts.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tick, cells float64) string {
		res := []result{{Workload: "paper-default", Seed: 1, Ticks: 60, Ops: 10, StreamHash: "ab", OracleChecked: 5,
			Metrics: map[string]measure{
				"tick_p50_us":                       {Value: tick, Unit: "us"},
				"core.cell_accesses_per_query_tick": {Value: cells, Unit: "count"},
			}}}
		doc, _ := json.Marshal(res)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a1, a2 := write("a1", 100, 3), write("a2", 101, 3)
	same1, same2 := write("s1", 102, 3), write("s2", 100, 3)
	slow1, slow2 := write("w1", 150, 3), write("w2", 151, 3)
	wild1, wild2 := write("u1", 60, 3), write("u2", 160, 3)
	count1, count2 := write("c1", 100, 4), write("c2", 101, 3)
	for _, c := range []struct {
		name string
		b    []string
		want int
	}{
		{"same", []string{same1, same2}, 0},
		{"worse", []string{slow1, slow2}, 1},
		{"unresolved", []string{wild1, wild2}, 0},
		{"counts", []string{count1, count2}, 1},
	} {
		args := append([]string{a1, a2, "--"}, c.b...)
		if got := compareMain(args, io.Discard); got != c.want {
			t.Errorf("%s: compare exits %d, want %d", c.name, got, c.want)
		}
	}
}
