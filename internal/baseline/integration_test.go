// The integration tests cross-validate the three monitoring methods — CPM,
// YPK-CNN and SEA-CNN — against each other and against the brute-force
// oracle, over full network-workload simulations with object churn and
// moving queries. This is the repository's strongest end-to-end check: the
// paper's experimental claim is about cost, but only because all methods
// maintain exactly the same answers. They sit outside package baseline so
// they reach the baselines only through the API CPM shares with them.
package baseline_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cpm/internal/baseline"
	"cpm/internal/bench"
	"cpm/internal/bruteforce"
	"cpm/internal/core"
	"cpm/internal/generator"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
	"cpm/internal/network"
	"cpm/internal/shard"
)

type testbed struct {
	workload *generator.Workload
	monitors []model.Monitor
	oracle   *grid.Grid // a plain grid kept in sync as ground truth
	queries  []geom.Point
	k        int
}

func newTestbed(t *testing.T, seed int64, params generator.Params, gridSize, k int) *testbed {
	t.Helper()
	net, err := network.Generate(network.GenOptions{Width: 10, Height: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	params.Seed = seed + 1000
	w, err := generator.New(net, params)
	if err != nil {
		t.Fatal(err)
	}
	objs := w.InitialObjects()

	tb := &testbed{
		workload: w,
		monitors: []model.Monitor{
			shard.NewUnit(1, gridSize, core.Options{}),
			baseline.NewUnitYPK(gridSize),
			baseline.NewUnitSEA(gridSize),
		},
		oracle: grid.NewUnit(gridSize),
		k:      k,
	}
	for id, p := range objs {
		if err := tb.oracle.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range tb.monitors {
		m.Bootstrap(objs)
	}
	tb.queries = w.InitialQueries()
	for i, q := range tb.queries {
		for _, m := range tb.monitors {
			if err := m.RegisterQuery(model.QueryID(i), q, k); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
		}
	}
	return tb
}

// step advances the simulation one timestamp, feeding every monitor the
// same batch and mirroring it into the oracle grid.
func (tb *testbed) step(t *testing.T) {
	t.Helper()
	b := tb.workload.Advance()
	for _, u := range b.Objects {
		var err error
		switch u.Kind {
		case model.Move:
			_, _, err = tb.oracle.Move(u.ID, u.New)
		case model.Insert:
			err = tb.oracle.Insert(u.ID, u.New)
		case model.Delete:
			err = tb.oracle.Delete(u.ID)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, qu := range b.Queries {
		if qu.Kind == model.QueryMove {
			tb.queries[qu.ID] = qu.NewPoints[0]
		}
	}
	for _, m := range tb.monitors {
		m.ProcessBatch(b)
	}
}

// verify checks every query of every monitor against the oracle.
func (tb *testbed) verify(t *testing.T, ts int) {
	t.Helper()
	const eps = 1e-9
	for i, q := range tb.queries {
		want := bruteforce.TopK(tb.oracle, q, tb.k)
		for _, m := range tb.monitors {
			got := m.Result(model.QueryID(i))
			if len(got) != len(want) {
				t.Fatalf("ts %d %s q%d: got %d results, want %d\ngot  %v\nwant %v",
					ts, m.Name(), i, len(got), len(want), got, want)
			}
			for r := range got {
				if math.Abs(got[r].Dist-want[r].Dist) > eps {
					t.Fatalf("ts %d %s q%d rank %d: dist %v, want %v\ngot  %v\nwant %v",
						ts, m.Name(), i, r, got[r].Dist, want[r].Dist, got, want)
				}
			}
		}
	}
}

func TestAllMethodsAgreeDefaultMix(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		params := generator.Params{
			N: 400, NumQueries: 12,
			ObjectSpeed: generator.Medium, QuerySpeed: generator.Medium,
			ObjectAgility: 0.5, QueryAgility: 0.3,
		}
		tb := newTestbed(t, seed, params, 16, 4)
		for ts := 0; ts < 25; ts++ {
			tb.step(t)
			tb.verify(t, ts)
		}
	}
}

func TestAllMethodsAgreeFastChurn(t *testing.T) {
	params := generator.Params{
		N: 250, NumQueries: 8,
		ObjectSpeed: generator.Fast, QuerySpeed: generator.Fast,
		ObjectAgility: 1.0, QueryAgility: 1.0,
	}
	tb := newTestbed(t, 77, params, 12, 8)
	for ts := 0; ts < 25; ts++ {
		tb.step(t)
		tb.verify(t, ts)
	}
}

func TestAllMethodsAgreeStaticQueries(t *testing.T) {
	params := generator.Params{
		N: 300, NumQueries: 10,
		ObjectSpeed:   generator.Slow,
		ObjectAgility: 0.4, QueryAgility: 0,
	}
	tb := newTestbed(t, 5, params, 20, 2)
	for ts := 0; ts < 30; ts++ {
		tb.step(t)
		tb.verify(t, ts)
	}
}

func TestAllMethodsAgreeLargeK(t *testing.T) {
	params := generator.Params{
		N: 300, NumQueries: 5,
		ObjectSpeed: generator.Medium, QuerySpeed: generator.Medium,
		ObjectAgility: 0.6, QueryAgility: 0.4,
	}
	tb := newTestbed(t, 9, params, 8, 64)
	for ts := 0; ts < 15; ts++ {
		tb.step(t)
		tb.verify(t, ts)
	}
}

// TestAllMethodsRejectNonFiniteUpdates feeds moves and inserts with NaN and
// ±Inf coordinates to all three methods: each must count them invalid and
// leave its objects where they were, so every result stays the oracle's —
// no object at distance NaN.
func TestAllMethodsRejectNonFiniteUpdates(t *testing.T) {
	objs := map[model.ObjectID]geom.Point{
		1: {X: 0.5, Y: 0.5}, 2: {X: 0.55, Y: 0.5}, 3: {X: 0.2, Y: 0.8}, 4: {X: 0.9, Y: 0.1},
	}
	oracle := grid.NewUnit(8)
	for id, p := range objs {
		if err := oracle.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []model.Update{
		model.MoveUpdate(1, objs[1], geom.Point{X: nan, Y: 0.1}),
		model.MoveUpdate(2, objs[2], geom.Point{X: 0.5, Y: inf}),
		model.MoveUpdate(3, objs[3], geom.Point{X: -inf, Y: nan}),
		model.InsertUpdate(9, geom.Point{X: inf, Y: 0.5}),
		model.InsertUpdate(10, geom.Point{X: 0.5, Y: nan}),
	}
	good := model.MoveUpdate(4, objs[4], geom.Point{X: 0.45, Y: 0.5})
	if _, _, err := oracle.Move(good.ID, good.New); err != nil {
		t.Fatal(err)
	}
	engine := shard.NewUnit(1, 8, core.Options{})
	ypk, sea := baseline.NewUnitYPK(8), baseline.NewUnitSEA(8)
	q := geom.Point{X: 0.5, Y: 0.5}
	for _, m := range []model.Monitor{engine, ypk, sea} {
		m.Bootstrap(objs)
		if err := m.RegisterQuery(1, q, 2); err != nil {
			t.Fatal(err)
		}
		m.ProcessBatch(model.Batch{Objects: append(slices.Clone(bad), good)})
		if got, want := m.Result(1), bruteforce.TopK(oracle, q, 2); !slices.Equal(got, want) {
			t.Errorf("%s: result %v, oracle %v", m.Name(), got, want)
		}
	}
	for name, invalid := range map[string]int64{
		"CPM": engine.InvalidUpdates(), "YPK-CNN": ypk.InvalidUpdates(), "SEA-CNN": sea.InvalidUpdates(),
	} {
		if invalid != int64(len(bad)) {
			t.Errorf("%s: %d invalid updates, want %d", name, invalid, len(bad))
		}
	}
}

// TestCPMVariantsAgree runs the ablations (the harness's per-update
// wrapper, dropped book-keeping) against the default engine on the same
// stream.
func TestCPMVariantsAgree(t *testing.T) {
	net, err := network.Generate(network.GenOptions{Width: 10, Height: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, err := generator.New(net, generator.Params{
		N: 300, NumQueries: 10,
		ObjectSpeed: generator.Medium, QuerySpeed: generator.Medium,
		ObjectAgility: 0.5, QueryAgility: 0.3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := w.InitialObjects()
	engines := []model.Monitor{
		shard.NewUnit(1, 16, core.Options{}),
		bench.CPMPerUpdate.New(16),
		shard.NewUnit(1, 16, core.Options{DropBookkeeping: true}),
	}
	for _, e := range engines {
		e.Bootstrap(objs)
	}
	for i, q := range w.InitialQueries() {
		for _, e := range engines {
			if err := e.RegisterQuery(model.QueryID(i), q, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	for ts := 0; ts < 20; ts++ {
		b := w.Advance()
		for _, e := range engines {
			e.ProcessBatch(b)
		}
		ref := engines[0]
		for i := 0; i < 10; i++ {
			want := ref.Result(model.QueryID(i))
			for _, e := range engines[1:] {
				got := e.Result(model.QueryID(i))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("ts %d q%d: variant diverged\ngot  %v\nwant %v", ts, i, got, want)
				}
			}
		}
	}
}

// TestCPMBeatsBaselinesOnCellAccesses asserts the paper's headline cost
// relationship on a live workload: CPM touches far fewer cells than either
// baseline for the same stream and identical results.
func TestCPMBeatsBaselinesOnCellAccesses(t *testing.T) {
	params := generator.Params{
		N: 500, NumQueries: 15,
		ObjectSpeed: generator.Medium, QuerySpeed: generator.Medium,
		ObjectAgility: 0.5, QueryAgility: 0.3,
	}
	tb := newTestbed(t, 21, params, 16, 4)
	base := make([]model.Stats, len(tb.monitors))
	for i, m := range tb.monitors {
		base[i] = m.Stats()
	}
	for ts := 0; ts < 30; ts++ {
		tb.step(t)
	}
	tb.verify(t, 30)
	acc := make([]int64, len(tb.monitors))
	for i, m := range tb.monitors {
		acc[i] = m.Stats().Sub(base[i]).CellAccesses
	}
	cpm, ypk, sea := acc[0], acc[1], acc[2]
	if cpm >= ypk {
		t.Errorf("CPM cell accesses %d not below YPK-CNN %d", cpm, ypk)
	}
	if cpm >= sea {
		t.Errorf("CPM cell accesses %d not below SEA-CNN %d", cpm, sea)
	}
	t.Logf("cell accesses over 30 cycles: CPM=%d YPK=%d SEA=%d", cpm, ypk, sea)
}
