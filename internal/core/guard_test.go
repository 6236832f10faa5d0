//go:build race || cpmassert

package core

import (
	"testing"

	"cpm/internal/geom"
	"cpm/internal/grid"
	"cpm/internal/model"
)

// The negative controls of the freed-slot guard: it must fire when a slot
// is parked while something still names it. They compile only where the
// guard does (race or cpmassert builds) — `make assert` and CI's assert and
// race jobs run them.

func guardedEngine(t *testing.T) *testEngine {
	t.Helper()
	w := newWorld(3)
	e := newTestEngine(8, Options{})
	e.Bootstrap(w.populate(50))
	if err := e.RegisterQuery(1, geom.Point{X: 0.5, Y: 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterRange(2, geom.Point{X: 0.2, Y: 0.2}, 0.1); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestGuardTripsOnStaleInfluenceEntry(t *testing.T) {
	e := guardedEngine(t)
	qu := e.ids[1]
	// A cell outside the influence prefix: clearInfluence will not visit it.
	stale := grid.CellIndex(0)
	for e.HasInfluence(stale, 1) {
		stale++
	}
	e.infl.AddUnchecked(stale, qu.h)
	mustPanic(t, "parking a slot an influence list still names", func() { e.RemoveQuery(1) })
}

func TestGuardTripsOnStaleTouchedEntry(t *testing.T) {
	e := guardedEngine(t)
	qu := e.ids[2]
	e.touched = append(e.touched, qu)
	mustPanic(t, "parking a slot the touched list still names", func() { e.RemoveQuery(2) })
}

func TestGuardQuietOnCleanRemoval(t *testing.T) {
	e := guardedEngine(t)
	e.RemoveQuery(1)
	e.RemoveQuery(2)
	if len(e.free) != 2 {
		t.Fatalf("%d slots parked, want 2", len(e.free))
	}
}

// The negative controls of the search-state guard: a visit list out of key
// order, or an influence prefix that disagrees with best_dist, must trip
// it where finishSearch and shrinkInfluence leave the query.

func TestGuardTripsOnUnorderedVisitList(t *testing.T) {
	e := guardedEngine(t)
	qu := e.ids[1]
	e.orderVisit(qu)
	if len(qu.visit) < 2 || qu.visit[0].key == qu.visit[len(qu.visit)-1].key {
		t.Fatalf("visit list %v too short to swap", qu.visit)
	}
	last := len(qu.visit) - 1
	qu.visit[0], qu.visit[last] = qu.visit[last], qu.visit[0]
	mustPanic(t, "shrinking over an unordered visit list", func() { e.shrinkInfluence(qu) })
}

func TestGuardTripsOnTailBeyondBestDist(t *testing.T) {
	e := guardedEngine(t)
	qu := e.ids[1]
	// A traversal that let a cell beyond best_dist join its unordered tail
	// would put it in the influence prefix.
	far := visitEntry{cell: 0, key: qu.best.kthDist() + 1}
	qu.visit = append(qu.visit, far)
	qu.ordered = min(qu.ordered, len(qu.visit)-1)
	mustPanic(t, "finishing a search whose tail holds a key beyond best_dist", func() {
		e.finishSearch(qu, len(qu.visit))
	})
}

func TestGuardQuietOnSearches(t *testing.T) {
	w := newWorld(5)
	e := newTestEngine(11, Options{})
	e.Bootstrap(w.populate(80))
	for i := range 20 {
		if err := e.RegisterQuery(model.QueryID(i), w.randPoint(), 1+i); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		e.ProcessBatch(w.randomBatch(40, false))
	}
	e.Rebalance(6)
	e.ProcessBatch(w.randomBatch(40, false))
}

// The negative controls of the installed-index guard: after an install
// step, a pending query the open cycle keeps, or an index entry that no
// installed prefix accounts for, must trip it.

func TestGuardTripsOnUnlistedPendingQuery(t *testing.T) {
	e := guardedEngine(t)
	e.ProcessBatch(model.Batch{})
	qu := e.ids[1]
	// Flagged pending with its entries gone, but not on the pending list:
	// no install step reaches it.
	e.setInfluenceEnd(qu, 0)
	qu.pending = true
	mustPanic(t, "an install step that leaves a kept query pending", func() { e.BeginCycle(nil) })
}

func TestGuardTripsOnNamedPendingSlot(t *testing.T) {
	e := guardedEngine(t)
	// Query 1 moves and is pending; an entry naming its slot is left behind.
	pts := []geom.Point{{X: 0.3, Y: 0.7}}
	e.ProcessBatch(model.Batch{Queries: []model.QueryUpdate{{ID: 1, Kind: model.QueryMove, NewPoints: pts}}})
	qu := e.ids[1]
	if !qu.pending {
		t.Fatal("moved query 1 is not pending")
	}
	e.infl.AddUnchecked(qu.visit[0].cell, qu.h)
	mustPanic(t, "an install step with a pending slot named in the index", func() {
		e.BeginCycle([]model.QueryUpdate{{ID: 1, Kind: model.QueryMove, NewPoints: pts}})
	})
}

func TestGuardQuietOnInstalls(t *testing.T) {
	e := guardedEngine(t)
	pts := []geom.Point{{X: 0.3, Y: 0.7}}
	move := model.Batch{Queries: []model.QueryUpdate{{ID: 1, Kind: model.QueryMove, NewPoints: pts}}}
	e.ProcessBatch(move)
	e.ProcessBatch(move)
	e.Watched()
	e.ProcessBatch(model.Batch{})
	e.Rebalance(5)
}
