package core

import (
	"math"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

func TestComputeMatchesOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		w := newWorld(seed)
		n := 1 + w.rng.Intn(300)
		objs := w.populate(n)
		gridSize := 1 << (1 + w.rng.Intn(5)) // 2..32
		e := newTestEngine(gridSize, Options{})
		e.Bootstrap(objs)
		for trial := 0; trial < 10; trial++ {
			k := 1 + w.rng.Intn(20)
			def := PointQuery(w.randPoint(), k)
			id := model.QueryID(trial)
			if err := e.Register(id, def); err != nil {
				t.Fatal(err)
			}
			checkResult(t, "compute", e.Result(id), oracle(e, def))
			checkInvariants(t, e, id)
		}
	}
}

func TestComputeKLargerThanPopulation(t *testing.T) {
	w := newWorld(1)
	e := newTestEngine(8, Options{})
	e.Bootstrap(w.populate(5))
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 10); err != nil {
		t.Fatal(err)
	}
	res := e.Result(1)
	if len(res) != 5 {
		t.Fatalf("got %d results, want all 5 objects", len(res))
	}
	if !math.IsInf(e.BestDist(1), 1) {
		t.Errorf("BestDist = %v, want +Inf", e.BestDist(1))
	}
	checkInvariants(t, e, 1)
}

func TestComputeEmptyGrid(t *testing.T) {
	e := newTestEngine(8, Options{})
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	if len(e.Result(1)) != 0 {
		t.Errorf("result on empty grid = %v", e.Result(1))
	}
	checkInvariants(t, e, 1)
}

func TestComputeDuplicatePositions(t *testing.T) {
	e := newTestEngine(8, Options{})
	p := geom.Point{X: 0.31, Y: 0.47}
	objs := map[model.ObjectID]geom.Point{}
	for i := 0; i < 6; i++ {
		objs[model.ObjectID(i)] = p // all stacked on one point
	}
	objs[6] = geom.Point{X: 0.9, Y: 0.9}
	e.Bootstrap(objs)
	if err := e.RegisterQuery(1, p, 3); err != nil {
		t.Fatal(err)
	}
	res := e.Result(1)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	// Deterministic tie-break: lowest ids win.
	for i, want := range []model.ObjectID{0, 1, 2} {
		if res[i].ID != want || res[i].Dist != 0 {
			t.Fatalf("rank %d = %v, want id %d dist 0", i, res[i], want)
		}
	}
}

func TestComputeQueryAtCorners(t *testing.T) {
	w := newWorld(3)
	e := newTestEngine(16, Options{})
	e.Bootstrap(w.populate(100))
	corners := []geom.Point{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1},
		{X: 0.5, Y: 0}, {X: 0, Y: 0.5}, {X: 1, Y: 0.5}, {X: 0.5, Y: 1},
	}
	for i, q := range corners {
		id := model.QueryID(i)
		def := PointQuery(q, 7)
		if err := e.Register(id, def); err != nil {
			t.Fatal(err)
		}
		checkResult(t, "corner", e.Result(id), oracle(e, def))
		checkInvariants(t, e, id)
	}
}

func TestComputeQueryOutsideWorkspace(t *testing.T) {
	w := newWorld(4)
	e := newTestEngine(8, Options{})
	e.Bootstrap(w.populate(60))
	// Query points outside the workspace clamp to border cells but
	// distances stay exact.
	for i, q := range []geom.Point{{X: -0.4, Y: 0.5}, {X: 1.3, Y: 1.2}, {X: 0.5, Y: -2}} {
		id := model.QueryID(i)
		def := PointQuery(q, 4)
		if err := e.Register(id, def); err != nil {
			t.Fatal(err)
		}
		checkResult(t, "outside", e.Result(id), oracle(e, def))
	}
}

func TestComputeGrid1x1(t *testing.T) {
	w := newWorld(5)
	e := newTestEngine(1, Options{})
	e.Bootstrap(w.populate(50))
	def := PointQuery(w.randPoint(), 5)
	if err := e.Register(1, def); err != nil {
		t.Fatal(err)
	}
	checkResult(t, "1x1", e.Result(1), oracle(e, def))
	checkInvariants(t, e, 1)
}

func TestANNMatchesOracle(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		w := newWorld(seed)
		e := newTestEngine(16, Options{})
		e.Bootstrap(w.populate(200))
		for trial, agg := range []geom.Agg{geom.AggSum, geom.AggMin, geom.AggMax} {
			m := 2 + w.rng.Intn(4)
			pts := make([]geom.Point, m)
			for i := range pts {
				pts[i] = w.randPoint()
			}
			def := AggQuery(pts, 1+w.rng.Intn(8), agg)
			id := model.QueryID(trial)
			if err := e.Register(id, def); err != nil {
				t.Fatal(err)
			}
			checkResult(t, "ann-"+agg.String(), e.Result(id), oracle(e, def))
			checkInvariants(t, e, id)
		}
	}
}

func TestConstrainedMatchesOracle(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		w := newWorld(seed)
		e := newTestEngine(16, Options{})
		e.Bootstrap(w.populate(200))
		for trial := 0; trial < 5; trial++ {
			lo := w.randPoint()
			region := geom.Rect{Lo: lo, Hi: geom.Point{
				X: lo.X + w.rng.Float64()*(1-lo.X),
				Y: lo.Y + w.rng.Float64()*(1-lo.Y),
			}}
			def := PointQuery(w.randPoint(), 1+w.rng.Intn(6))
			def.Constraint = &region
			id := model.QueryID(trial)
			if err := e.Register(id, def); err != nil {
				t.Fatal(err)
			}
			checkResult(t, "constrained", e.Result(id), oracle(e, def))
			for _, n := range e.Result(id) {
				p, _ := e.g.Position(n.ID)
				if !region.Contains(p) {
					t.Fatalf("constrained result %d outside region", n.ID)
				}
			}
			checkInvariants(t, e, id)
			e.RemoveQuery(id)
		}
	}
}

// TestConstrainedNortheast reproduces Figure 5.3: monitoring the NN to the
// northeast of q must skip the unconstrained NN on the other side.
func TestConstrainedNortheast(t *testing.T) {
	e := newTestEngine(8, Options{})
	q := geom.Point{X: 0.5, Y: 0.5}
	e.Bootstrap(map[model.ObjectID]geom.Point{
		1: {X: 0.45, Y: 0.5},  // unconstrained NN, to the west
		2: {X: 0.52, Y: 0.45}, // southeast
		3: {X: 0.7, Y: 0.7},   // northeast
	})
	region := geom.Rect{Lo: q, Hi: geom.Point{X: 1, Y: 1}}
	def := PointQuery(q, 1)
	def.Constraint = &region
	if err := e.Register(1, def); err != nil {
		t.Fatal(err)
	}
	res := e.Result(1)
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("constrained NN = %v, want object 3", res)
	}
}

func TestConstrainedEmptyRegion(t *testing.T) {
	w := newWorld(7)
	e := newTestEngine(8, Options{})
	e.Bootstrap(w.populate(50))
	// A region outside the workspace: no admissible objects.
	region := geom.Rect{Lo: geom.Point{X: 2, Y: 2}, Hi: geom.Point{X: 3, Y: 3}}
	def := PointQuery(geom.Point{X: 0.5, Y: 0.5}, 3)
	def.Constraint = &region
	if err := e.Register(1, def); err != nil {
		t.Fatal(err)
	}
	if len(e.Result(1)) != 0 {
		t.Fatalf("result in empty region = %v", e.Result(1))
	}
}

// TestSearchMinimality: the number of cell accesses of a fresh point-NN
// search must equal the number of cells intersecting the result circle,
// i.e. the influence region — the optimality argument of Section 3.1. The
// search counts the cells it scans and the install step the empty ones it
// joins, so the count is read once the query is installed.
func TestSearchMinimality(t *testing.T) {
	for seed := int64(300); seed < 320; seed++ {
		w := newWorld(seed)
		e := newTestEngine(16, Options{})
		e.Bootstrap(w.populate(400))
		q := w.randPoint()
		before := e.Stats().CellAccesses
		if err := e.RegisterQuery(1, q, 4); err != nil {
			t.Fatal(err)
		}
		e.installPending()
		accesses := e.Stats().CellAccesses - before
		bd := e.BestDist(1)
		// Count cells with mindist(c,q) < bd; cells at exactly bd need not
		// be visited (the install step's replay joins them). Empty cells
		// count too: CPM visits cells, not objects.
		minimal := int64(0)
		atBoundary := int64(0)
		for row := 0; row < 16; row++ {
			for col := 0; col < 16; col++ {
				d := e.g.CellRect(col, row).MinDist(q)
				switch {
				case d < bd:
					minimal++
				case d == bd:
					atBoundary++
				}
			}
		}
		if accesses < minimal || accesses > minimal+atBoundary {
			t.Fatalf("seed %d: %d accesses, minimal %d (+%d boundary)",
				seed, accesses, minimal, atBoundary)
		}
		e.RemoveQuery(1)
	}
}

// TestVisitListAscending is implied by checkInvariants but exercised here
// across many random configurations explicitly.
func TestVisitListAscendingHeavy(t *testing.T) {
	w := newWorld(31)
	e := newTestEngine(32, Options{})
	e.Bootstrap(w.populate(500))
	for i := 0; i < 50; i++ {
		id := model.QueryID(i)
		if err := e.RegisterQuery(id, w.randPoint(), 1+w.rng.Intn(32)); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, e, id)
	}
}

func TestRemoveQueryClearsInfluence(t *testing.T) {
	w := newWorld(8)
	e := newTestEngine(16, Options{})
	e.Bootstrap(w.populate(100))
	if err := e.RegisterQuery(1, w.randPoint(), 5); err != nil {
		t.Fatal(err)
	}
	e.RemoveQuery(1)
	for idx := 0; idx < 16*16; idx++ {
		if e.HasInfluence(grid.CellIndex(idx), 1) {
			t.Fatalf("influence left in cell %d after removal", idx)
		}
	}
	if e.Result(1) != nil {
		t.Error("result survives removal")
	}
	e.RemoveQuery(42) // unknown: no-op
}

func TestMoveQueryRecomputes(t *testing.T) {
	w := newWorld(9)
	e := newTestEngine(16, Options{})
	e.Bootstrap(w.populate(300))
	if err := e.RegisterQuery(1, geom.Point{X: 0.1, Y: 0.1}, 6); err != nil {
		t.Fatal(err)
	}
	to := geom.Point{X: 0.9, Y: 0.85}
	if err := e.MoveQuery(1, []geom.Point{to}); err != nil {
		t.Fatal(err)
	}
	checkResult(t, "moved", e.Result(1), oracle(e, PointQuery(to, 6)))
	checkInvariants(t, e, 1)
	if err := e.MoveQuery(99, []geom.Point{to}); err == nil {
		t.Error("move of unknown query accepted")
	}
	if err := e.MoveQuery(1, []geom.Point{to, to}); err == nil {
		t.Error("move with wrong point count accepted")
	}
}
