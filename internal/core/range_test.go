package core

import (
	"fmt"
	"math"
	"testing"

	"cpm/internal/geom"
	"cpm/internal/model"
)

// rangeOracle computes the ground truth for a range query.
func rangeOracle(e *testEngine, center geom.Point, radius float64) []model.Neighbor {
	var out []model.Neighbor
	e.g.ForEachObject(func(id model.ObjectID, p geom.Point) {
		if d := geom.Dist(p, center); d <= radius {
			out = append(out, model.Neighbor{ID: id, Dist: d})
		}
	})
	sortNeighbors(out)
	return out
}

func sortNeighbors(ns []model.Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Less(ns[j-1]); j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func TestRangeRegisterAndResult(t *testing.T) {
	w := newWorld(70)
	e := newTestEngine(16, Options{})
	e.Bootstrap(w.populate(200))
	center := geom.Point{X: 0.5, Y: 0.5}
	const radius = 0.2
	if err := e.RegisterRange(1, center, radius); err != nil {
		t.Fatal(err)
	}
	checkResult(t, "range initial", e.RangeResult(1), rangeOracle(e, center, radius))
	if !e.IsRange(1) || e.IsRange(2) {
		t.Error("IsRange wrong")
	}
	if e.RangeResult(99) != nil {
		t.Error("unknown range query has result")
	}
}

func TestRangeValidation(t *testing.T) {
	e := newTestEngine(8, Options{})
	if err := e.RegisterRange(1, geom.Point{X: 0.5, Y: 0.5}, -1); err == nil {
		t.Error("negative radius accepted")
	}
	if err := e.RegisterRange(1, geom.Point{X: 0.5, Y: 0.5}, math.Inf(1)); err == nil {
		t.Error("infinite radius accepted")
	}
	if err := e.RegisterRange(1, geom.Point{X: math.NaN(), Y: 0.5}, 0.1); err == nil {
		t.Error("NaN center accepted")
	}
	if err := e.RegisterRange(1, geom.Point{X: 0.5, Y: 0.5}, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRange(1, geom.Point{X: 0.5, Y: 0.5}, 0.1); err == nil {
		t.Error("duplicate range id accepted")
	}
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 2); err == nil {
		t.Error("kNN registration over a range id accepted")
	}
	if err := e.Register(2, PointQuery(geom.Point{X: 0.5, Y: 0.5}, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRange(2, geom.Point{X: 0.5, Y: 0.5}, 0.1); err == nil {
		t.Error("range registration over a kNN id accepted")
	}
	if err := e.MoveRange(42, geom.Point{}); err == nil {
		t.Error("move of unknown range query accepted")
	}
}

// TestRangeMonitoringMatchesOracle drives range queries through random
// update cycles alongside k-NN queries sharing the same cells.
func TestRangeMonitoringMatchesOracle(t *testing.T) {
	for seed := int64(80); seed < 86; seed++ {
		w := newWorld(seed)
		e := newTestEngine(12, Options{})
		e.Bootstrap(w.populate(150))
		type rdef struct {
			center geom.Point
			radius float64
		}
		rdefs := map[model.QueryID]rdef{}
		for i := 0; i < 5; i++ {
			id := model.QueryID(i)
			d := rdef{center: w.randPoint(), radius: 0.05 + w.rng.Float64()*0.3}
			rdefs[id] = d
			if err := e.RegisterRange(id, d.center, d.radius); err != nil {
				t.Fatal(err)
			}
		}
		// A k-NN query sharing the workspace ensures the two query kinds
		// coexist on the same influence lists.
		knnDef := PointQuery(w.randPoint(), 5)
		if err := e.Register(100, knnDef); err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 20; cycle++ {
			e.ProcessBatch(w.randomBatch(40, true))
			for id, d := range rdefs {
				label := fmt.Sprintf("seed %d cycle %d range %d", seed, cycle, id)
				checkResult(t, label, e.RangeResult(id), rangeOracle(e, d.center, d.radius))
			}
			checkResult(t, "knn alongside ranges", e.Result(100), oracle(e, knnDef))
			checkInvariants(t, e, 100)
		}
	}
}

func TestRangeMoveAndTerminateViaBatch(t *testing.T) {
	w := newWorld(90)
	e := newTestEngine(12, Options{})
	e.Bootstrap(w.populate(120))
	if err := e.RegisterRange(1, w.randPoint(), 0.15); err != nil {
		t.Fatal(err)
	}
	to := geom.Point{X: 0.7, Y: 0.3}
	b := w.randomBatch(20, false)
	b.Queries = []model.QueryUpdate{
		{ID: 1, Kind: model.QueryMove, NewPoints: []geom.Point{to}},
	}
	e.ProcessBatch(b)
	checkResult(t, "moved range", e.RangeResult(1), rangeOracle(e, to, 0.15))

	e.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{{ID: 1, Kind: model.QueryTerminate}}})
	if e.RangeResult(1) != nil || e.IsRange(1) {
		t.Error("terminated range query survives")
	}
	// Its influence entries are gone: a move in its old region triggers
	// nothing (and does not crash).
	e.ProcessBatch(w.randomBatch(10, false))
}

func TestRangeZeroRadius(t *testing.T) {
	e := newTestEngine(8, Options{})
	p := geom.Point{X: 0.31, Y: 0.47}
	e.Bootstrap(map[model.ObjectID]geom.Point{1: p, 2: {X: 0.5, Y: 0.5}})
	if err := e.RegisterRange(1, p, 0); err != nil {
		t.Fatal(err)
	}
	got := e.RangeResult(1)
	if len(got) != 1 || got[0].ID != 1 || got[0].Dist != 0 {
		t.Fatalf("zero-radius result = %v", got)
	}
}

func TestInvalidCoordinateUpdatesDropped(t *testing.T) {
	e := newTestEngine(8, Options{})
	e.Bootstrap(map[model.ObjectID]geom.Point{1: {X: 0.5, Y: 0.5}})
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(model.Batch{Objects: []model.Update{
		model.MoveUpdate(1, geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: math.NaN(), Y: 0.1}),
		model.InsertUpdate(5, geom.Point{X: math.Inf(1), Y: 0.1}),
	}})
	if e.InvalidUpdates() != 2 {
		t.Errorf("InvalidUpdates = %d, want 2", e.InvalidUpdates())
	}
	// The object stays where it was; results intact.
	if p, _ := e.g.Position(1); p != (geom.Point{X: 0.5, Y: 0.5}) {
		t.Errorf("object moved to invalid position: %v", p)
	}
	if got := e.Result(1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("result corrupted: %v", got)
	}
}
