package bench

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cpm/internal/bruteforce"
	"cpm/internal/generator"
	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
	"cpm/internal/network"
)

func tinyOptions() Options {
	return Options{Scale: 0.004, Timestamps: 4, Seed: 3, GridSize: 32}
}

func tinyConfig() Config {
	gen := generator.Defaults(0.004) // N=400, n=20
	gen.Seed = 5
	return Config{
		GridSize:   32,
		K:          4,
		Timestamps: 4,
		Net:        network.GenOptions{Width: 8, Height: 8, Seed: 2},
		Gen:        gen,
	}
}

func TestMethodNamesAndConstruction(t *testing.T) {
	for _, m := range []Method{CPM, YPK, SEA, CPMPerUpdate, CPMDropBookkeeping, CPMSharded} {
		if m.String() == "" || strings.HasPrefix(m.String(), "method(") {
			t.Errorf("method %d has no name", m)
		}
		mon := m.New(16)
		if mon == nil {
			t.Errorf("%s: New returned nil", m)
		}
	}
	if Method(99).String() != "method(99)" {
		t.Error("unknown method name wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("New of unknown method did not panic")
		}
	}()
	Method(99).New(16)
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.GridSize = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Timestamps = 0 },
		func(c *Config) { c.Gen.N = 0 },
	}
	for i, mutate := range bad {
		c := tinyConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunMethodProducesWork(t *testing.T) {
	for _, m := range AllMethods {
		meas, err := RunMethod(m, tinyConfig())
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if meas.Stats.CellAccesses < 0 {
			t.Errorf("%s: negative cell accesses", m)
		}
		if meas.Memory <= 0 {
			t.Errorf("%s: no memory footprint", m)
		}
		if meas.Queries != 20 || meas.Timestamps != 4 {
			t.Errorf("%s: run shape wrong: %+v", m, meas)
		}
		if meas.PerCycle() < 0 {
			t.Errorf("%s: negative per-cycle time", m)
		}
		_ = meas.CellsPerQueryPerCycle()
	}
}

func TestRunMethodsDeterministicWorkload(t *testing.T) {
	// Two runs of the same method over the same config must do identical
	// work (time differs; counters must not).
	a, err := RunMethod(CPM, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMethod(CPM, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("replays diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) < 14 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("fig6.3b"); !ok {
		t.Error("ByID failed for fig6.3b")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID invented an experiment")
	}
}

// TestSmallExperimentsRun exercises representative experiment
// implementations end to end at minuscule scale.
func TestSmallExperimentsRun(t *testing.T) {
	o := tinyOptions()
	for _, id := range []string{"fig6.3b", "fig6.4a", "space", "model", "ann", "ablation.batch", "ablation.rebalance"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		tbl, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 || len(tbl.Header) < 2 {
			t.Fatalf("%s: empty table", id)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		if !strings.Contains(sb.String(), tbl.ID) {
			t.Errorf("%s: render missing id", id)
		}
		csv := tbl.CSV()
		if !strings.Contains(csv, ",") || len(strings.Split(csv, "\n")) < len(tbl.Rows)+1 {
			t.Errorf("%s: CSV malformed", id)
		}
	}
}

// TestShardedMatchesCPMCounters pins the harness-level equivalence: the
// sharded method does exactly the work of single-engine CPM on the same
// workload (wall-clock differs; counters must not).
func TestShardedMatchesCPMCounters(t *testing.T) {
	a, err := RunMethod(CPM, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMethod(CPMSharded, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Errorf("sharded work diverged from CPM: %+v vs %+v", b.Stats, a.Stats)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		ID:     "t",
		Title:  "demo",
		Note:   "a note",
		Header: []string{"x", "longcolumn"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"t — demo", "a note", "longcolumn", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := tbl.CSV(); got != "x,longcolumn\n1,2\n333,4\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.001:   "0.0010",
		0.5:     "0.500",
		12.3456: "12.35",
		1234.5:  "1234", // %.0f rounds half to even
	}
	for v, want := range cases {
		if got := fmtFloat(v); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestPerUpdateWrapperMatchesCPM: over a random stream of object moves,
// inserts and deletes, query moves, removals and registrations, the
// CPM-perupd wrapper ends every tick with CPM's results, and both with the
// brute-force oracle's.
func TestPerUpdateWrapperMatchesCPM(t *testing.T) {
	const gridSize, k = 16, 5
	rng := rand.New(rand.NewSource(11))
	point := func() geom.Point { return geom.Point{X: rng.Float64(), Y: rng.Float64()} }
	oracle := grid.NewUnit(gridSize)
	pos := map[model.ObjectID]geom.Point{}
	var live []model.ObjectID
	for id := range model.ObjectID(400) {
		pos[id] = point()
		live = append(live, id)
	}
	monitors := []model.Monitor{CPM.New(gridSize), CPMPerUpdate.New(gridSize)}
	for _, m := range monitors {
		defer m.(interface{ Close() }).Close()
		m.Bootstrap(pos)
	}
	for _, id := range live {
		if err := oracle.Insert(id, pos[id]); err != nil {
			t.Fatal(err)
		}
	}
	queries := map[model.QueryID]geom.Point{}
	register := func(id model.QueryID) {
		queries[id] = point()
		for _, m := range monitors {
			if err := m.RegisterQuery(id, queries[id], k); err != nil {
				t.Fatal(err)
			}
		}
	}
	nextQuery := model.QueryID(0)
	for ; nextQuery < 30; nextQuery++ {
		register(nextQuery)
	}
	nextObj := model.ObjectID(len(live))
	for tick := range 25 {
		var b model.Batch
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for i, id := range live[:60] {
			switch {
			case i < 40:
				to := point()
				b.Objects = append(b.Objects, model.MoveUpdate(id, pos[id], to))
				pos[id] = to
			case i < 50:
				b.Objects = append(b.Objects, model.DeleteUpdate(id, pos[id]))
				delete(pos, id)
			default:
				pos[nextObj] = point()
				b.Objects = append(b.Objects, model.InsertUpdate(nextObj, pos[nextObj]))
				nextObj++
			}
		}
		live = live[:0]
		for id := range pos {
			live = append(live, id)
		}
		slices.Sort(live)
		for id := range nextQuery {
			if _, ok := queries[id]; !ok {
				continue
			}
			switch r := rng.Float64(); {
			case r < 0.25:
				queries[id] = point()
				b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryMove, NewPoints: []geom.Point{queries[id]}})
			case r < 0.3:
				delete(queries, id)
				b.Queries = append(b.Queries, model.QueryUpdate{ID: id, Kind: model.QueryTerminate})
			}
		}
		if _, invalid := oracle.ApplyBatch(b.Objects, nil); invalid != 0 {
			t.Fatalf("tick %d: the oracle dropped %d updates", tick, invalid)
		}
		for _, m := range monitors {
			m.ProcessBatch(b)
		}
		for id, q := range queries {
			want := bruteforce.TopK(oracle, q, k)
			for i, m := range monitors {
				if got := m.Result(id); !slices.Equal(got, want) {
					t.Fatalf("tick %d q%d: %s has %v, brute force %v", tick, id, []Method{CPM, CPMPerUpdate}[i], got, want)
				}
			}
		}
		for range 2 {
			register(nextQuery)
			nextQuery++
		}
	}
}
