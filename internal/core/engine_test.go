package core

import (
	"math"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

func TestRegisterValidation(t *testing.T) {
	e := NewUnitEngine(8, Options{})
	cases := map[string]Def{
		"no points": {K: 3},
		"zero k":    {Points: []geom.Point{{X: 0.5, Y: 0.5}}, K: 0},
		"neg k":     {Points: []geom.Point{{X: 0.5, Y: 0.5}}, K: -2},
		"bad agg":   {Points: []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, K: 1, Agg: geom.Agg(7)},
		"nan point": {Points: []geom.Point{{X: math.NaN(), Y: 0.5}}, K: 1},
		"inf point": {Points: []geom.Point{{X: math.Inf(1), Y: 0.5}}, K: 1},
		"inverted constraint": {
			Points: []geom.Point{{X: 0.5, Y: 0.5}}, K: 1,
			Constraint: &geom.Rect{Lo: geom.Point{X: 1, Y: 1}, Hi: geom.Point{X: 0, Y: 0}},
		},
	}
	for name, def := range cases {
		if err := e.Register(1, def); err == nil {
			t.Errorf("%s: Register accepted invalid def", name)
		}
	}
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterQuery(1, geom.Point{X: 0.6, Y: 0.6}, 2); err == nil {
		t.Error("duplicate query id accepted")
	}
}

func TestBootstrapPanicsWhenNonEmpty(t *testing.T) {
	e := NewUnitEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	defer func() {
		if recover() == nil {
			t.Error("second Bootstrap did not panic")
		}
	}()
	e.Bootstrap(map[model.ObjectID]geom.Point{2: {X: 0.6, Y: 0.6}})
}

func TestNameAndQueryIDs(t *testing.T) {
	e := NewUnitEngine(8, Options{})
	if e.Name() != "CPM" {
		t.Errorf("Name = %q", e.Name())
	}
	e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	for i := 0; i < 3; i++ {
		if err := e.RegisterQuery(model.QueryID(i), geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if ids := e.QueryIDs(); len(ids) != 3 {
		t.Errorf("QueryIDs = %v", ids)
	}
	if e.BestDist(44) != 0 {
		t.Errorf("BestDist of unknown query = %v, want 0", e.BestDist(44))
	}
}

func TestStatsAccumulate(t *testing.T) {
	w := newWorld(50)
	e := NewUnitEngine(16, Options{})
	e.Bootstrap(w.populate(200))
	if err := e.RegisterQuery(1, w.randPoint(), 8); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.FullSearches != 1 {
		t.Errorf("FullSearches = %d, want 1", s.FullSearches)
	}
	if s.CellAccesses == 0 || s.HeapOps == 0 || s.ObjectsProcessed == 0 {
		t.Errorf("work counters empty: %+v", s)
	}
	// Stats arithmetic helpers.
	d := s.Sub(model.Stats{FullSearches: 1})
	if d.FullSearches != 0 {
		t.Errorf("Sub failed: %+v", d)
	}
	var acc model.Stats
	acc.Add(s)
	acc.Add(s)
	if acc.CellAccesses != 2*s.CellAccesses {
		t.Errorf("Add failed: %+v", acc)
	}
}

func TestMemoryFootprintGrows(t *testing.T) {
	w := newWorld(51)
	e := NewUnitEngine(16, Options{})
	base := e.MemoryFootprint()
	if base != 0 {
		t.Errorf("empty engine footprint = %d", base)
	}
	e.Bootstrap(w.populate(100))
	afterObjects := e.MemoryFootprint()
	if afterObjects != 300 {
		t.Errorf("footprint after 100 objects = %d, want 300", afterObjects)
	}
	if err := e.RegisterQuery(1, w.randPoint(), 4); err != nil {
		t.Fatal(err)
	}
	if e.MemoryFootprint() <= afterObjects {
		t.Error("footprint did not grow with a query")
	}
}

func TestDropBookkeepingShrinksFootprint(t *testing.T) {
	w := newWorld(52)
	objs := w.populate(500)
	full := NewUnitEngine(32, Options{})
	full.Bootstrap(objs)
	lean := NewUnitEngine(32, Options{DropBookkeeping: true})
	lean.Bootstrap(objs)
	for i := 0; i < 20; i++ {
		q := w.randPoint()
		if err := full.RegisterQuery(model.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
		if err := lean.RegisterQuery(model.QueryID(i), q, 4); err != nil {
			t.Fatal(err)
		}
	}
	if lean.MemoryFootprint() >= full.MemoryFootprint() {
		t.Errorf("DropBookkeeping footprint %d not below full %d",
			lean.MemoryFootprint(), full.MemoryFootprint())
	}
}

func TestResultIsACopy(t *testing.T) {
	e := NewUnitEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}, 2: {X: 0.6, Y: 0.6}})
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	r := e.Result(1)
	r[0].ID = 999
	if e.Result(1)[0].ID == 999 {
		t.Error("Result exposes internal storage")
	}
}

// TestEngineOwnsQueryPoints: the engine keeps a query's points for the
// query's lifetime, so it must copy them — a caller
// that reuses the buffers it registered or moved a query with (a stream
// generator recycling its chunks) must not move the query behind the
// engine's back, which used to leave the visit list keyed to one point and
// the leftover heap to another, and the same object in a result twice.
func TestEngineOwnsQueryPoints(t *testing.T) {
	w := newWorld(5)
	e := NewUnitEngine(16, Options{})
	e.Bootstrap(w.populate(300))
	pts := []geom.Point{{X: 0.3, Y: 0.3}}
	if err := e.Register(1, Def{Points: pts, K: 4}); err != nil {
		t.Fatal(err)
	}
	want := Def{Points: []geom.Point{pts[0]}, K: 4}
	pts[0] = geom.Point{X: 0.9, Y: 0.9}
	for round := 0; round < 20; round++ {
		if round == 10 {
			to := []geom.Point{{X: 0.45, Y: 0.35}}
			b := w.randomBatch(40, false)
			b.Queries = []model.QueryUpdate{{ID: 1, Kind: model.QueryMove, NewPoints: to}}
			e.ProcessBatch(b)
			want.Points[0] = to[0]
			to[0] = geom.Point{X: 0.05, Y: 0.95}
		} else {
			e.ProcessBatch(w.randomBatch(40, false))
		}
		checkResult(t, "after the caller reused its buffers", e.Result(1), oracle(e, want))
		checkInvariants(t, e, 1)
	}
}
